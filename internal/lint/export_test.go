package lint

import (
	"path/filepath"
	"sync"
	"testing"
)

var moduleProgram = sync.OnceValues(func() (*Program, error) {
	pkgs, err := Load(filepath.Join("..", ".."))
	if err != nil {
		return nil, err
	}
	return BuildProgram(pkgs), nil
})

// ModuleProgram returns the Program of the real module, loaded and built
// once per test binary: the tests that inspect the repository itself share
// it instead of each parsing and summarising every package again.
func ModuleProgram(t testing.TB) *Program {
	t.Helper()
	prog, err := moduleProgram()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}
