package sqlparse

import (
	"strings"

	"hana/internal/expr"
	"hana/internal/value"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// SelectItem is one entry of a select list.
type SelectItem struct {
	Expr  expr.Expr
	Alias string
	Star  bool // SELECT * (Expr nil; Qualifier optionally set, e.g. t.*)
	Qual  string
}

// OrderItem is one ORDER BY entry.
type OrderItem struct {
	Expr expr.Expr
	Desc bool
}

// KeepUnit is the unit of a CCL KEEP clause.
type KeepUnit int

// Keep units.
const (
	KeepRows KeepUnit = iota
	KeepSeconds
	KeepMinutes
	KeepHours
)

// KeepClause is a CCL window retention specification ("KEEP 100 ROWS",
// "KEEP 5 MINUTES").
type KeepClause struct {
	N    int64
	Unit KeepUnit
}

// Duration returns the retention in microseconds for time-based windows; 0
// for row-based.
func (k *KeepClause) Duration() int64 {
	switch k.Unit {
	case KeepSeconds:
		return k.N * 1e6
	case KeepMinutes:
		return k.N * 60e6
	case KeepHours:
		return k.N * 3600e6
	}
	return 0
}

// SelectStmt is a (possibly nested) query block.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     TableExpr // nil for "SELECT <exprs>" without FROM
	Where    expr.Expr
	GroupBy  []expr.Expr
	Having   expr.Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 = none
	Hints    []string
	Keep     *KeepClause // CCL only
}

func (*SelectStmt) stmt() {}

// HasHint reports whether the query carries the named hint
// (case-insensitive), e.g. USE_REMOTE_CACHE.
func (s *SelectStmt) HasHint(name string) bool {
	for _, h := range s.Hints {
		if strings.EqualFold(h, name) {
			return true
		}
	}
	return false
}

// JoinType enumerates join flavors.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeft
	JoinRight
	JoinFull
	JoinCross
)

// String names the join type.
func (j JoinType) String() string {
	switch j {
	case JoinInner:
		return "INNER"
	case JoinLeft:
		return "LEFT OUTER"
	case JoinRight:
		return "RIGHT OUTER"
	case JoinFull:
		return "FULL OUTER"
	case JoinCross:
		return "CROSS"
	}
	return "?"
}

// TableExpr is a FROM-clause item.
type TableExpr interface{ tableExpr() }

// TableRef names a stored, virtual or remote table. Parts holds the
// dot-separated path as written ("dflo"."dflo"."product" has three parts).
type TableRef struct {
	Parts []string
	Alias string
}

func (*TableRef) tableExpr() {}

// Name returns the last path element, the table's local name.
func (t *TableRef) Name() string { return t.Parts[len(t.Parts)-1] }

// Binding returns the name other clauses refer to this table by.
func (t *TableRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name()
}

// JoinExpr is an explicit join.
type JoinExpr struct {
	Type JoinType
	L, R TableExpr
	On   expr.Expr // nil for CROSS
}

func (*JoinExpr) tableExpr() {}

// SubqueryTable is a derived table: (SELECT …) alias.
type SubqueryTable struct {
	Sel   *SelectStmt
	Alias string
}

func (*SubqueryTable) tableExpr() {}

// TableFuncRef calls a (virtual) table function in FROM:
// PLANT100_SENSOR_RECORDS() B.
type TableFuncRef struct {
	Name  string
	Args  []expr.Expr
	Alias string
}

func (*TableFuncRef) tableExpr() {}

// Binding returns the name other clauses use for this function's rows.
func (t *TableFuncRef) Binding() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// Subquery expression nodes. They implement expr.Expr so they can sit in
// predicates; the planner replaces them before execution, so Eval errors.

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct {
	Sel *SelectStmt
}

// Eval fails: the planner must rewrite subqueries.
func (s *SubqueryExpr) Eval(value.Row) (value.Value, error) {
	return value.Null, errUnplanned("scalar subquery")
}

// SQL renders the subquery, so shipped statements regenerate faithfully.
func (s *SubqueryExpr) SQL() string { return "(" + RenderSelect(s.Sel) + ")" }

// ExistsExpr is [NOT] EXISTS (SELECT …).
type ExistsExpr struct {
	Sel    *SelectStmt
	Negate bool
}

// Eval fails: the planner must rewrite subqueries.
func (e *ExistsExpr) Eval(value.Row) (value.Value, error) {
	return value.Null, errUnplanned("EXISTS subquery")
}

// SQL renders the subquery, so shipped statements regenerate faithfully.
func (e *ExistsExpr) SQL() string {
	if e.Negate {
		return "NOT EXISTS (" + RenderSelect(e.Sel) + ")"
	}
	return "EXISTS (" + RenderSelect(e.Sel) + ")"
}

// InSubqueryExpr is e [NOT] IN (SELECT …).
type InSubqueryExpr struct {
	E      expr.Expr
	Sel    *SelectStmt
	Negate bool
}

// Eval fails: the planner must rewrite subqueries.
func (e *InSubqueryExpr) Eval(value.Row) (value.Value, error) {
	return value.Null, errUnplanned("IN subquery")
}

// SQL renders the subquery, so shipped statements regenerate faithfully.
func (e *InSubqueryExpr) SQL() string {
	n := ""
	if e.Negate {
		n = "NOT "
	}
	return "(" + e.E.SQL() + " " + n + "IN (" + RenderSelect(e.Sel) + "))"
}

// SubqueryPredicate is a WHERE conjunct [NOT] IN (SELECT …) or
// [NOT] EXISTS (…) as a planner sees it, with every NOT folded into Anti.
type SubqueryPredicate struct {
	Anti  bool
	Outer expr.Expr // the IN comparison expression; nil for EXISTS
	Sel   *SelectStmt
}

// NullAware reports SQL NOT IN semantics: a NULL among the subquery's keys
// leaves the predicate unknown for every row it does not match.
func (p SubqueryPredicate) NullAware() bool { return p.Anti && p.Outer != nil }

// AsSubqueryPredicate recognizes a subquery predicate, including NOT applied
// through expr's generic negation node.
func AsSubqueryPredicate(c expr.Expr) (SubqueryPredicate, bool) {
	switch n := c.(type) {
	case *InSubqueryExpr:
		return SubqueryPredicate{Anti: n.Negate, Outer: n.E, Sel: n.Sel}, true
	case *ExistsExpr:
		return SubqueryPredicate{Anti: n.Negate, Sel: n.Sel}, true
	case *expr.UnOp:
		if p, ok := AsSubqueryPredicate(n.E); ok && n.Op == expr.OpNot {
			p.Anti = !p.Anti
			return p, true
		}
	}
	return SubqueryPredicate{}, false
}

// Subqueries returns the blocks of the scalar, [NOT] IN and [NOT] EXISTS
// subqueries in e, in walk order, leaving out those nested inside them.
func Subqueries(e expr.Expr) (out []*SelectStmt) {
	expr.Walk(e, func(n expr.Expr) bool {
		if sq, ok := n.(*SubqueryExpr); ok {
			out = append(out, sq.Sel)
		} else if p, ok := AsSubqueryPredicate(n); ok {
			out = append(out, p.Sel)
		} else {
			return true
		}
		return false
	})
	return out
}

type unplannedErr string

func (u unplannedErr) Error() string { return string(u) }

func errUnplanned(what string) error {
	return unplannedErr(what + " must be rewritten by the planner before evaluation")
}

// ColumnDef is one column of a CREATE TABLE.
type ColumnDef struct {
	Name     string
	TypeName string // as written, e.g. VARCHAR(30)
	Kind     value.Kind
	NotNull  bool
	PrimKey  bool
}

// StorageClass says where a table or partition lives.
type StorageClass int

// Storage classes. StorageExtended is the paper's "USING EXTENDED STORAGE"
// (disk-based IQ store); StorageRow the in-memory row store; StorageColumn
// the default in-memory column store.
const (
	StorageColumn StorageClass = iota
	StorageRow
	StorageExtended
)

// String names the storage class.
func (s StorageClass) String() string {
	switch s {
	case StorageColumn:
		return "COLUMN"
	case StorageRow:
		return "ROW"
	case StorageExtended:
		return "EXTENDED"
	}
	return "?"
}

// PartitionDef is one range partition: PARTITION VALUES < bound, or
// PARTITION OTHERS for the rest bucket. Storage selects hot (column) or
// cold (extended) placement per partition.
type PartitionDef struct {
	Bound   expr.Expr // nil for OTHERS
	Others  bool
	Storage StorageClass
}

// CreateTableStmt covers CREATE [ROW|COLUMN|FLEXIBLE] TABLE with the
// extended-storage, partitioning and aging clauses of the dialect.
type CreateTableStmt struct {
	Name        string
	Cols        []ColumnDef
	Storage     StorageClass
	Hybrid      bool // USING HYBRID EXTENDED STORAGE
	Flexible    bool // CREATE FLEXIBLE TABLE: schema extension on insert
	PartitionBy string
	Partitions  []PartitionDef
	AgingColumn string // WITH AGING ON (col): flag column driving hot→cold moves
	IfNotExists bool
}

func (*CreateTableStmt) stmt() {}

// AlterTableStmt is ALTER TABLE t ADD (col type) — schema modification,
// supported uniformly for in-memory, extended and hybrid tables (§3.1).
type AlterTableStmt struct {
	Table string
	Add   []ColumnDef
}

func (*AlterTableStmt) stmt() {}

// DropStmt drops a table, remote source, virtual table or function.
type DropStmt struct {
	Kind     string // TABLE, REMOTE SOURCE, VIRTUAL TABLE, VIRTUAL FUNCTION
	Name     string
	IfExists bool
}

func (*DropStmt) stmt() {}

// InsertStmt is INSERT INTO t [(cols)] VALUES (…),(…) or INSERT … SELECT.
type InsertStmt struct {
	Table  string
	Cols   []string
	Values [][]expr.Expr
	Select *SelectStmt
}

func (*InsertStmt) stmt() {}

// UpdateStmt is UPDATE t SET c = e, … WHERE ….
type UpdateStmt struct {
	Table string
	Set   []struct {
		Col string
		E   expr.Expr
	}
	Where expr.Expr
}

func (*UpdateStmt) stmt() {}

// DeleteStmt is DELETE FROM t WHERE ….
type DeleteStmt struct {
	Table string
	Where expr.Expr
}

func (*DeleteStmt) stmt() {}

// CreateRemoteSourceStmt registers an SDA remote source:
//
//	CREATE REMOTE SOURCE HIVE1 ADAPTER "hiveodbc"
//	  CONFIGURATION 'DSN=hive1'
//	  WITH CREDENTIAL TYPE 'PASSWORD' USING 'user=u;password=p'
type CreateRemoteSourceStmt struct {
	Name           string
	Adapter        string
	Configuration  string
	CredentialType string
	Credentials    string
}

func (*CreateRemoteSourceStmt) stmt() {}

// CreateVirtualTableStmt exposes a remote table:
//
//	CREATE VIRTUAL TABLE "VT" AT "SRC"."db"."schema"."table"
type CreateVirtualTableStmt struct {
	Name   string
	Source string   // first path element
	Remote []string // remaining path elements identifying the remote object
}

func (*CreateVirtualTableStmt) stmt() {}

// CreateVirtualFunctionStmt exposes a remote map-reduce job as a table
// function (§4.3 of the paper).
type CreateVirtualFunctionStmt struct {
	Name          string
	Returns       []ColumnDef
	Configuration string
	Source        string
}

func (*CreateVirtualFunctionStmt) stmt() {}

// ExplainStmt wraps a SELECT for plan display. With Trace set (EXPLAIN
// TRACE <select>) the statement is executed and its full span timeline is
// returned alongside the plan.
type ExplainStmt struct {
	Sel   *SelectStmt
	Trace bool
}

func (*ExplainStmt) stmt() {}
