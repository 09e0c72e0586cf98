package engine

import (
	"hana/internal/sqlparse"
	"hana/internal/value"
)

// neededOrds resolves the statement-wide referenced-column set against a
// table schema. nil means every column is needed.
func neededOrds(needed sqlparse.ColumnSet, schema *value.Schema) []bool {
	if needed == nil {
		return nil
	}
	out := make([]bool, len(schema.Cols))
	for i, c := range schema.Cols {
		out[i] = needed.Has(c.Name)
	}
	return out
}
