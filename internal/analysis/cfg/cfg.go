// Package cfg builds per-function control-flow graphs over go/ast and
// runs small forward/backward dataflow problems on them. It is the
// flow-sensitive tier underneath pgss-lint's lockorder and leaktrack
// analyzers: the syntax-level analyzers of PR 4 see one statement at a
// time, while these need "what is held/open *on this path*".
//
// The graph is deliberately simple: a Block is a maximal run of
// straight-line statements, an Edge optionally carries the branch
// condition it was taken under (so analyzers can refine facts on
// `err != nil` splits), and function literals are opaque — each FuncLit
// gets its own graph via Build, never inlined into the enclosing one.
//
// Statements that transfer control — return, panic-shaped calls, goto,
// labeled and bare break/continue, fallthrough — end their block. Defer
// is recorded in place (its position matters to leak analysis: a
// `defer f.Close()` protects only the paths after it executes) and the
// deferred calls are additionally listed in Graph.Defers.
package cfg

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Block is one basic block: statements that execute consecutively.
// Nodes holds statements and, for branch heads, the controlling
// condition expression's owner statement (IfStmt/ForStmt/...); walk it
// with ast.Inspect but do not descend into nested *ast.FuncLit.
type Block struct {
	Index int
	Kind  string // "entry", "exit", "if.then", "for.head", ... for debugging
	Nodes []ast.Node
	Succs []Edge
	Preds []*Block
}

// Edge is one control-flow edge. When Cond is non-nil the edge is taken
// exactly when Cond evaluates to (!Negate); analyzers use this to refine
// facts on error-check branches.
type Edge struct {
	To     *Block
	Cond   ast.Expr
	Negate bool
}

// Graph is the CFG of one function body. Entry has no predecessors;
// Exit collects every return and the fall-off-the-end path. Blocks is
// in construction order with Entry first; unreachable blocks (after a
// return, say) stay in the slice so their statements remain visitable.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Defers lists every defer statement in the body, in source order.
	// A deferred call runs on every path that passes its statement.
	Defers []*ast.DeferStmt
}

// String renders the graph compactly for tests and debugging:
// "b0[entry] -> b1; b1[if.then] -> b3; ...".
func (g *Graph) String() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d[%s]:", b.Index, b.Kind)
		for _, e := range b.Succs {
			mark := ""
			if e.Cond != nil {
				if e.Negate {
					mark = "!"
				} else {
					mark = "?"
				}
			}
			fmt.Fprintf(&sb, " %sb%d", mark, e.To.Index)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

type loopTarget struct {
	label   string
	breakTo *Block
	contTo  *Block // nil for switch/select targets (continue skips them)
}

type builder struct {
	g       *Graph
	cur     *Block
	targets []loopTarget
	labels  map[string]*Block   // goto targets already seen
	gotos   map[string][]*Block // forward gotos awaiting their label
}

// Build constructs the CFG of body. body may be any function body
// (declared function, method or literal); a nil body yields a graph
// with only entry and exit.
func Build(body *ast.BlockStmt) *Graph {
	b := &builder{
		g:      &Graph{},
		labels: map[string]*Block{},
		gotos:  map[string][]*Block{},
	}
	entry := b.newBlock("entry")
	b.g.Entry = entry
	b.g.Exit = &Block{Kind: "exit"}
	b.cur = entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Falling off the end of the body reaches the exit.
	b.jump(b.g.Exit, nil, false)
	b.g.Exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	return b.g
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

// jump adds an edge cur -> to (skipped when cur already terminated).
func (b *builder) jump(to *Block, cond ast.Expr, negate bool) {
	if b.cur == nil {
		return
	}
	b.cur.Succs = append(b.cur.Succs, Edge{To: to, Cond: cond, Negate: negate})
	to.Preds = append(to.Preds, b.cur)
}

// terminate marks the current path ended (return/goto/break...); any
// statements syntactically following land in a fresh unreachable block.
func (b *builder) terminate() {
	b.cur = nil
}

func (b *builder) ensureBlock(kind string) {
	if b.cur == nil {
		b.cur = b.newBlock(kind + ".dead")
	}
}

func (b *builder) add(n ast.Node) {
	b.ensureBlock("stmt")
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// findTarget resolves break/continue. label == "" means innermost
// suitable target; wantCont skips break-only targets (switch/select).
func (b *builder) findTarget(label string, wantCont bool) *loopTarget {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if wantCont && t.contTo == nil {
			continue
		}
		if label == "" || t.label == label {
			return t
		}
	}
	return nil
}

func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// The label names both a goto target and (for loops/switches)
		// the labeled break/continue target.
		lblBlock := b.newBlock("label." + s.Label.Name)
		b.jump(lblBlock, nil, false)
		b.cur = lblBlock
		b.labels[s.Label.Name] = lblBlock
		for _, from := range b.gotos[s.Label.Name] {
			from.Succs = append(from.Succs, Edge{To: lblBlock})
			lblBlock.Preds = append(lblBlock.Preds, from)
		}
		delete(b.gotos, s.Label.Name)
		b.stmt(s.Stmt, s.Label.Name)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit, nil, false)
		b.terminate()

	case *ast.BranchStmt:
		b.add(s)
		switch s.Tok {
		case token.BREAK:
			if t := b.findTarget(labelName(s.Label), false); t != nil {
				b.jump(t.breakTo, nil, false)
			}
			b.terminate()
		case token.CONTINUE:
			if t := b.findTarget(labelName(s.Label), true); t != nil {
				b.jump(t.contTo, nil, false)
			}
			b.terminate()
		case token.GOTO:
			name := labelName(s.Label)
			if to, ok := b.labels[name]; ok {
				b.jump(to, nil, false)
			} else if b.cur != nil {
				b.gotos[name] = append(b.gotos[name], b.cur)
			}
			b.terminate()
		case token.FALLTHROUGH:
			// Handled structurally by the switch builder; nothing here.
		}

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s) // condition evaluates in the head block
		head := b.cur
		then := b.newBlock("if.then")
		b.linkFrom(head, then, s.Cond, false)
		b.cur = then
		b.stmt(s.Body, "")
		afterThen := b.cur
		var afterElse *Block
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.linkFrom(head, els, s.Cond, true)
			b.cur = els
			b.stmt(s.Else, "")
			afterElse = b.cur
		}
		join := b.newBlock("if.join")
		b.cur = afterThen
		b.jump(join, nil, false)
		if s.Else != nil {
			b.cur = afterElse
			b.jump(join, nil, false)
		} else {
			b.linkFrom(head, join, s.Cond, true)
		}
		b.cur = join

	case *ast.ForStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		head := b.newBlock("for.head")
		b.jump(head, nil, false)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s)
		}
		exit := b.newBlock("for.exit")
		post := head
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		b.targets = append(b.targets, loopTarget{label: label, breakTo: exit, contTo: post})
		body := b.newBlock("for.body")
		b.linkFrom(head, body, s.Cond, false)
		if s.Cond != nil {
			b.linkFrom(head, exit, s.Cond, true)
		}
		b.cur = body
		b.stmt(s.Body, "")
		if s.Post != nil {
			b.jump(post, nil, false)
			b.cur = post
			b.stmt(s.Post, "")
			b.jump(head, nil, false)
		} else {
			b.jump(head, nil, false)
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = exit

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		b.jump(head, nil, false)
		head.Nodes = append(head.Nodes, s) // the range expr itself
		exit := b.newBlock("range.exit")
		b.targets = append(b.targets, loopTarget{label: label, breakTo: exit, contTo: head})
		body := b.newBlock("range.body")
		b.linkFrom(head, body, nil, false)
		b.linkFrom(head, exit, nil, false)
		b.cur = body
		b.stmt(s.Body, "")
		b.jump(head, nil, false)
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = exit

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s) // tag evaluates in the head block
		head := b.cur
		exit := b.newBlock("switch.exit")
		b.targets = append(b.targets, loopTarget{label: label, breakTo: exit})
		b.caseClauses(head, exit, s.Body, "switch")
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = exit

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.stmt(s.Init, "")
		}
		b.add(s)
		head := b.cur
		exit := b.newBlock("typeswitch.exit")
		b.targets = append(b.targets, loopTarget{label: label, breakTo: exit})
		b.caseClauses(head, exit, s.Body, "typeswitch")
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = exit

	case *ast.SelectStmt:
		b.add(s) // the select itself (a blocking point) sits in the head
		head := b.cur
		exit := b.newBlock("select.exit")
		b.targets = append(b.targets, loopTarget{label: label, breakTo: exit})
		hasDefault := false
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			blk := b.newBlock("select.case")
			b.linkFrom(head, blk, nil, false)
			b.cur = blk
			if cc.Comm != nil {
				b.stmt(cc.Comm, "")
			} else {
				hasDefault = true
			}
			b.stmtList(cc.Body)
			b.jump(exit, nil, false)
		}
		_ = hasDefault
		if len(s.Body.List) == 0 {
			// `select {}` blocks forever: head has no successors.
			b.cur = head
			b.terminate()
		}
		b.targets = b.targets[:len(b.targets)-1]
		b.cur = exit

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			b.terminate()
		}

	default:
		// Assignments, declarations, sends, inc/dec, go, empty: plain
		// straight-line nodes.
		b.add(s)
	}
}

// caseClauses wires a (type)switch head to its clause bodies, honoring
// fallthrough and the implicit no-default edge to exit.
func (b *builder) caseClauses(head, exit *Block, body *ast.BlockStmt, kind string) {
	type clause struct {
		blk *Block
		cc  *ast.CaseClause
	}
	var clauses []clause
	hasDefault := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		k := kind + ".case"
		if cc.List == nil {
			k = kind + ".default"
			hasDefault = true
		}
		blk := b.newBlock(k)
		b.linkFrom(head, blk, nil, false)
		clauses = append(clauses, clause{blk, cc})
	}
	if !hasDefault {
		b.linkFrom(head, exit, nil, false)
	}
	for i, c := range clauses {
		b.cur = c.blk
		b.stmtList(c.cc.Body)
		if fallsThrough(c.cc.Body) && i+1 < len(clauses) {
			b.jump(clauses[i+1].blk, nil, false)
		} else {
			b.jump(exit, nil, false)
		}
		b.terminate()
	}
}

// linkFrom adds from -> to without touching b.cur.
func (b *builder) linkFrom(from, to *Block, cond ast.Expr, negate bool) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, Edge{To: to, Cond: cond, Negate: negate})
	to.Preds = append(to.Preds, from)
}

func labelName(id *ast.Ident) string {
	if id == nil {
		return ""
	}
	return id.Name
}

func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Visit walks every statement-level node of block b in order, calling
// fn. It does not descend into node children; analyzers that need the
// expression structure inspect each node themselves (skipping nested
// *ast.FuncLit, which have their own graphs).
func (b *Block) Visit(fn func(ast.Node)) {
	for _, n := range b.Nodes {
		fn(n)
	}
}

// ReversePostorder returns the blocks reachable from Entry in reverse
// postorder — the canonical iteration order for forward problems. The
// result is deterministic: successor edges are visited in their stored
// (source) order.
func (g *Graph) ReversePostorder() []*Block {
	seen := make(map[*Block]bool, len(g.Blocks))
	var post []*Block
	var dfs func(b *Block)
	dfs = func(b *Block) {
		seen[b] = true
		for _, e := range b.Succs {
			if !seen[e.To] {
				dfs(e.To)
			}
		}
		post = append(post, b)
	}
	dfs(g.Entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Direction selects how facts propagate through the graph.
type Direction int

const (
	Forward Direction = iota
	Backward
)

// Problem describes one dataflow analysis over fact type F. Facts must
// be treated as immutable by Transfer/FlowEdge/Join — return fresh
// values rather than mutating inputs, or the fixed point is undefined.
type Problem[F any] struct {
	Dir Direction
	// Boundary is the fact at Entry (forward) or Exit (backward).
	Boundary F
	// Init is the starting fact for every other block (the lattice
	// bottom for may-problems, top for must-problems).
	Init F
	// Transfer pushes a fact through the statements of one block.
	Transfer func(b *Block, in F) F
	// FlowEdge, when non-nil, refines the fact crossing edge e (e.g.
	// killing a resource on the `err != nil` branch). Applied after the
	// source block's Transfer.
	FlowEdge func(e Edge, out F) F
	// Join merges facts at control-flow merges.
	Join func(a, b F) F
	// Equal detects the fixed point.
	Equal func(a, b F) bool
}

// Solve runs the worklist algorithm to a fixed point and returns each
// block's IN fact (facts entering the block in the problem's
// direction). Re-apply Transfer to recover per-statement facts inside a
// block. Iteration order is deterministic.
func Solve[F any](g *Graph, p Problem[F]) map[*Block]F {
	in := make(map[*Block]F, len(g.Blocks))
	out := make(map[*Block]F, len(g.Blocks))
	for _, b := range g.Blocks {
		in[b] = p.Init
		out[b] = p.Init
	}

	// Orient the graph once so one loop serves both directions.
	preds := func(b *Block) []Edge {
		var es []Edge
		for _, pb := range b.Preds {
			for _, e := range pb.Succs {
				if e.To == b {
					es = append(es, Edge{To: pb, Cond: e.Cond, Negate: e.Negate})
				}
			}
		}
		return es
	}
	var order []*Block
	boundary := g.Entry
	edgesIn := preds
	if p.Dir == Backward {
		boundary = g.Exit
		edgesIn = func(b *Block) []Edge {
			es := make([]Edge, len(b.Succs))
			for i, e := range b.Succs {
				es[i] = Edge{To: e.To, Cond: e.Cond, Negate: e.Negate}
			}
			return es
		}
		// Postorder from entry approximates reverse flow order.
		rpo := g.ReversePostorder()
		order = make([]*Block, len(rpo))
		for i, b := range rpo {
			order[len(rpo)-1-i] = b
		}
	} else {
		order = g.ReversePostorder()
	}
	in[boundary] = p.Boundary

	work := make(map[*Block]bool, len(order))
	for _, b := range order {
		work[b] = true
	}
	for len(work) > 0 {
		// Deterministic drain: lowest-index block first.
		var next *Block
		for b := range work {
			if next == nil || b.Index < next.Index {
				next = b
			}
		}
		delete(work, next)

		if next != boundary {
			acc := p.Init
			first := true
			for _, e := range edgesIn(next) {
				f := out[e.To]
				if p.FlowEdge != nil {
					f = p.FlowEdge(Edge{To: next, Cond: e.Cond, Negate: e.Negate}, f)
				}
				if first {
					acc, first = f, false
				} else {
					acc = p.Join(acc, f)
				}
			}
			if !first {
				in[next] = acc
			}
		}
		newOut := p.Transfer(next, in[next])
		if !p.Equal(newOut, out[next]) {
			out[next] = newOut
			if p.Dir == Forward {
				for _, e := range next.Succs {
					work[e.To] = true
				}
			} else {
				for _, pb := range next.Preds {
					work[pb] = true
				}
			}
		}
	}
	return in
}

// Shallow returns the parts of a block node that actually evaluate in
// that block. Branch heads hold their whole statement (IfStmt, ForStmt,
// ...) so analyzers can recognize them, but only the condition/tag/range
// expression executes there — the bodies live in successor blocks.
// Walk each returned node with ast.Inspect (skipping *ast.FuncLit) to
// see exactly the expressions evaluated in the block.
func Shallow(n ast.Node) []ast.Node {
	switch n := n.(type) {
	case *ast.IfStmt:
		return []ast.Node{n.Cond}
	case *ast.ForStmt:
		if n.Cond == nil {
			return nil
		}
		return []ast.Node{n.Cond}
	case *ast.SwitchStmt:
		if n.Tag == nil {
			return nil
		}
		return []ast.Node{n.Tag}
	case *ast.TypeSwitchStmt:
		if n.Assign == nil {
			return nil
		}
		return []ast.Node{n.Assign}
	case *ast.RangeStmt:
		return []ast.Node{n.X}
	case *ast.SelectStmt:
		return nil
	default:
		return []ast.Node{n}
	}
}

// SortedKeys is a small helper for set-of-string facts: deterministic
// iteration over a fact map for reporting.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
