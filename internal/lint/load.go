package lint

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Load parses every Go package under root (the module root) into lint
// Packages keyed by import path. Test files are included — lock discipline
// and error handling matter there too. testdata, hidden directories, and
// vendor trees are skipped.
func Load(root string) (map[string]*Package, error) {
	module, err := modulePath(root)
	if err != nil {
		return nil, err
	}
	pkgs := map[string]*Package{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parse %s: %w", path, err)
		}
		dir := filepath.Dir(path)
		importPath := module
		if rel, err := filepath.Rel(root, dir); err == nil && rel != "." {
			importPath = module + "/" + filepath.ToSlash(rel)
		}
		pkg := pkgs[importPath]
		if pkg == nil {
			pkg = &Package{Path: importPath, Fset: fset}
			pkgs[importPath] = pkg
		}
		pkg.Files = append(pkg.Files, file)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, p := range pkgs {
		sort.Slice(p.Files, func(i, j int) bool {
			return fset.Position(p.Files[i].Pos()).Filename < fset.Position(p.Files[j].Pos()).Filename
		})
	}
	return pkgs, nil
}

// Filter keeps the packages matching the given patterns. "./..." (or no
// patterns) keeps everything; "./internal/esp" or "hana/internal/esp"
// keeps one package; a trailing "/..." keeps a subtree.
func Filter(pkgs map[string]*Package, module string, patterns []string) map[string]*Package {
	if len(patterns) == 0 {
		return pkgs
	}
	out := map[string]*Package{}
	for _, pat := range patterns {
		pat = strings.TrimPrefix(pat, "./")
		if pat == "..." || pat == "" {
			return pkgs
		}
		if !strings.HasPrefix(pat, module) {
			pat = module + "/" + pat
		}
		subtree := strings.HasSuffix(pat, "/...")
		prefix := strings.TrimSuffix(pat, "/...")
		for path, p := range pkgs {
			if path == prefix || (subtree && strings.HasPrefix(path, prefix+"/")) {
				out[path] = p
			}
		}
	}
	return out
}

// ModulePath exposes the module path of the repo at root.
func ModulePath(root string) (string, error) { return modulePath(root) }

func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("read go.mod: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("no module directive in %s/go.mod", root)
}
