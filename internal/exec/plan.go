package exec

import (
	"strconv"
	"strings"
)

// PlanNode is one node of an EXPLAIN tree: an operator, the table or source
// it reads (Object, printed in brackets), its keys or predicate (Detail),
// the rows it emitted (< 0 = not counted), notes on how it ran, attribute
// lines (the predicate a scan pushed or shipped) and its inputs.
type PlanNode struct {
	Op, Object, Detail string
	Rows               int
	Notes, Attrs       []string
	Children           []*PlanNode
}

// Node returns the node of op over its inputs, which emitted rows.
func Node(op, detail string, rows int, children ...*PlanNode) *PlanNode {
	return &PlanNode{Op: op, Detail: detail, Rows: rows, Children: children}
}

// String renders the tree one node per line, `Op [object] detail (N rows,
// note, …)`, with its attribute lines and then its inputs indented below.
func (n *PlanNode) String() string {
	var b strings.Builder
	n.render(&b, "")
	return b.String()
}

func (n *PlanNode) render(b *strings.Builder, indent string) {
	line := []string{indent + n.Op}
	if n.Object != "" {
		line = append(line, "["+n.Object+"]")
	}
	if n.Detail != "" {
		line = append(line, n.Detail)
	}
	paren := n.Notes
	if n.Rows >= 0 {
		paren = append([]string{strconv.Itoa(n.Rows) + " rows"}, n.Notes...)
	}
	if len(paren) > 0 {
		line = append(line, "("+strings.Join(paren, ", ")+")")
	}
	b.WriteString(strings.Join(line, " ") + "\n")
	for _, a := range n.Attrs {
		b.WriteString(indent + "  " + a + "\n")
	}
	for _, c := range n.Children {
		c.render(b, indent+"  ")
	}
}
