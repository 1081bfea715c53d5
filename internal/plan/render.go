package plan

import (
	"fmt"
	"strings"
)

// Render formats the plan tree with the per-operator page attribution
// filled in by the executor: each line shows what the operator decided to
// do and the pages it read and wrote doing it.
func (t *Tree) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "retrieve over %d variable(s)\n", t.NumVars)
	if t.Slice != nil {
		if s := t.Slice(); s != "" {
			fmt.Fprintf(&b, "  rollback slice: %s\n", s)
		}
	}
	for _, v := range t.Vars {
		fmt.Fprintf(&b, "  %s -> %s (%s, %s", v.Var, v.Rel, v.Type, v.Method)
		if v.KeyAttr != "" {
			fmt.Fprintf(&b, " on %s", v.KeyAttr)
		}
		fmt.Fprintf(&b, ", %d pages)\n", v.Pages)
	}
	b.WriteString("  executed plan (pages in/out per operator):\n")
	for _, n := range t.Prologue {
		renderNode(&b, n, 2)
	}
	renderNode(&b, t.Root, 2)
	return b.String()
}

func renderNode(b *strings.Builder, n *Node, depth int) {
	if n == nil {
		return
	}
	fmt.Fprintf(b, "%s%s  [in=%d out=%d]", strings.Repeat("  ", depth), n.describe(), n.IO.Reads, n.IO.Writes)
	if n.HasEst {
		fmt.Fprintf(b, "  [est rows=%.0f pages=%.0f | act rows=%d pages=%d]", n.EstRows, n.EstPages, n.ActRows, n.IO.Reads)
	}
	b.WriteString("\n")
	for _, c := range n.Children {
		renderNode(b, c, depth+1)
	}
}

func (n *Node) describe() string {
	s := n.Op.String()
	if n.Detail != nil {
		s = n.Detail()
	}
	if n.Op == OpTempScan && n.Pages > 0 {
		s += fmt.Sprintf(" (%d pages)", n.Pages)
	}
	if n.Current {
		s += " (current versions only)"
	}
	if n.Sels > 0 {
		s += fmt.Sprintf(", %d restriction(s)", n.Sels)
	}
	return s
}
