package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"hana/internal/value"
)

// ViewDef declares one system view: a name, the schema it serves (declared
// once, here, instead of implicitly inside the provider), and a Fill
// function that appends the current rows. M_VIEWS() enumerates every
// registered view with its column metadata, and fills are arity-checked
// against the declared schema.
type ViewDef struct {
	Name    string
	Columns []value.Column
	Fill    func(*value.Rows) error
}

// ViewMeta describes one registered view for enumeration.
type ViewMeta struct {
	Name    string
	Columns []value.Column
}

type viewEntry struct {
	name    string // upper-cased registration name
	columns []value.Column
	fill    func(*value.Rows) error
}

// ViewRegistry is the typed system-view registry. Names are
// case-insensitive; re-registering a name replaces the previous view.
type ViewRegistry struct {
	mu sync.RWMutex
	// hana:guardedby mu
	views map[string]*viewEntry
}

// NewViewRegistry creates an empty registry.
func NewViewRegistry() *ViewRegistry {
	return &ViewRegistry{views: map[string]*viewEntry{}}
}

// Register adds a typed view. The definition must carry a name, at least
// one column, and a Fill function.
func (vr *ViewRegistry) Register(def ViewDef) error {
	if def.Name == "" {
		return fmt.Errorf("view definition has no name")
	}
	if len(def.Columns) == 0 {
		return fmt.Errorf("view %s declares no columns", def.Name)
	}
	if def.Fill == nil {
		return fmt.Errorf("view %s has no Fill function", def.Name)
	}
	name := strings.ToUpper(def.Name)
	cols := append([]value.Column(nil), def.Columns...)
	vr.mu.Lock()
	defer vr.mu.Unlock()
	vr.views[name] = &viewEntry{name: name, columns: cols, fill: def.Fill}
	return nil
}

// Unregister removes a view.
func (vr *ViewRegistry) Unregister(name string) {
	vr.mu.Lock()
	defer vr.mu.Unlock()
	delete(vr.views, strings.ToUpper(name))
}

// Has reports whether a view with the given name is registered.
func (vr *ViewRegistry) Has(name string) bool {
	vr.mu.RLock()
	defer vr.mu.RUnlock()
	_, ok := vr.views[strings.ToUpper(name)]
	return ok
}

// Rows evaluates the named view. The second result reports whether the
// view exists; fills are arity-checked against the declared schema.
func (vr *ViewRegistry) Rows(name string) (*value.Rows, bool, error) {
	vr.mu.RLock()
	e, ok := vr.views[strings.ToUpper(name)]
	vr.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	out := value.NewRows(value.NewSchema(e.columns...))
	if err := e.fill(out); err != nil {
		return nil, true, err
	}
	for i, r := range out.Data {
		if len(r) != len(e.columns) {
			return nil, true, fmt.Errorf("view %s: row %d has %d values, schema declares %d columns",
				e.name, i, len(r), len(e.columns))
		}
	}
	return out, true, nil
}

// List enumerates the registered views sorted by name.
func (vr *ViewRegistry) List() []ViewMeta {
	vr.mu.RLock()
	out := make([]ViewMeta, 0, len(vr.views))
	for _, e := range vr.views {
		out = append(out, ViewMeta{
			Name:    e.name,
			Columns: append([]value.Column(nil), e.columns...),
		})
	}
	vr.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
