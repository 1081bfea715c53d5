// Package lockflow simulates lock state along the statement structure of
// one function body: which guards are held at each point, which are
// released by defer, and which are still held when a return is reached.
// It is the engine beneath latchorder's one walk per body, which serves
// both of its rules: every acquisition released on every return path,
// and the set of latches held at every call site, feeding the lock-order
// graph.
//
// The simulation is an abstract interpretation over the AST, not a real
// CFG: if/else and switch branches are walked independently and merged,
// loops are required to be lock-neutral, and break/continue are treated
// as straight-line flow. Where branches disagree about the held set the
// walker reports a divergence instead of guessing — conditionally held
// locks are exactly the bugs these checks exist to catch. Nested
// function literals are NOT entered; analyzers walk each body (declared
// or literal) separately.
package lockflow

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Mode distinguishes the write and read sides of an RWMutex-style guard.
// A Lock must be paired with Unlock and an RLock with RUnlock; the two
// sides are tracked as distinct guards.
type Mode byte

// Guard modes.
const (
	Write Mode = 'W' // Lock/Unlock
	Read  Mode = 'R' // RLock/RUnlock
)

// Held is one currently-held guard.
type Held struct {
	Name string // canonical name from Callbacks.LockName
	Mode Mode
	Pos  token.Pos // acquisition site
}

// String renders the guard for diagnostics ("c.mu", "db.rw(R)").
func (h Held) String() string {
	if h.Mode == Read {
		return h.Name + "(RLock)"
	}
	return h.Name
}

// Callbacks receives the simulation's events. Any field may be nil.
type Callbacks struct {
	// LockName decides whether a Lock/Unlock/RLock/RUnlock call on recv
	// is tracked, and under what canonical name. Untracked guards are
	// treated as ordinary calls.
	LockName func(recv ast.Expr) (string, bool)
	// OnAcquire fires when a tracked guard is acquired; heldBefore is
	// the state just before this acquisition.
	OnAcquire func(name string, mode Mode, pos token.Pos, heldBefore []Held)
	// OnCall fires for every non-lock call expression with the guards
	// held at that point.
	OnCall func(call *ast.CallExpr, held []Held)
	// OnDeferCall fires for a deferred non-lock call instead of OnCall,
	// when set: the call runs at function return, not at this program
	// point, which matters to analyses that order call sites (a deferred
	// release does not end the held region it textually follows). When
	// nil, OnCall receives deferred sites too, preserving the older
	// contract.
	OnDeferCall func(call *ast.CallExpr, held []Held)
	// OnReturnHeld fires at a return statement (or the fall-off end of
	// the body) reached with guards still held net of deferred releases.
	OnReturnHeld func(pos token.Pos, held []Held)
	// OnDiverge fires when two branches disagree about whether a guard
	// is held, or a loop body changes the held set.
	OnDiverge func(pos token.Pos, name string, mode Mode)
	// OnUnlockUnheld fires when a tracked guard is released while not
	// held (including an RUnlock paired with a Lock).
	OnUnlockUnheld func(pos token.Pos, name string, mode Mode)
}

// Walk simulates body and fires the callbacks.
func Walk(body *ast.BlockStmt, cb *Callbacks) {
	w := &walker{cb: cb}
	st := newState()
	out, terminated := w.stmts(body.List, st)
	if !terminated {
		if held := out.leaked(); len(held) > 0 && cb.OnReturnHeld != nil {
			cb.OnReturnHeld(body.End(), held)
		}
	}
}

// guard is the key of one tracked lock within the walk.
type guard struct {
	name string
	mode Mode
}

type entry struct {
	count int
	pos   token.Pos // most recent acquisition
}

// state is the abstract lock state at one program point.
type state struct {
	held     map[guard]entry
	deferred map[guard]int
}

func newState() *state {
	return &state{held: map[guard]entry{}, deferred: map[guard]int{}}
}

func (s *state) clone() *state {
	c := newState()
	for k, v := range s.held {
		c.held[k] = v
	}
	for k, v := range s.deferred {
		c.deferred[k] = v
	}
	return c
}

// heldNow lists the guards currently held (deferred releases have not
// run yet), sorted for determinism.
func (s *state) heldNow() []Held {
	var out []Held
	for k, e := range s.held {
		if e.count > 0 {
			out = append(out, Held{Name: k.name, Mode: k.mode, Pos: e.pos})
		}
	}
	sortHeld(out)
	return out
}

// leaked lists the guards that would remain held after the deferred
// releases run — the set reported at returns.
func (s *state) leaked() []Held {
	var out []Held
	for k, e := range s.held {
		if e.count-s.deferred[k] > 0 {
			out = append(out, Held{Name: k.name, Mode: k.mode, Pos: e.pos})
		}
	}
	sortHeld(out)
	return out
}

func sortHeld(hs []Held) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].Name != hs[j].Name {
			return hs[i].Name < hs[j].Name
		}
		return hs[i].Mode < hs[j].Mode
	})
}

type walker struct {
	cb *Callbacks
}

// lockMethod classifies a method name: mode and whether it acquires.
func lockMethod(name string) (Mode, bool, bool) {
	switch name {
	case "Lock":
		return Write, true, true
	case "Unlock":
		return Write, false, true
	case "RLock":
		return Read, true, true
	case "RUnlock":
		return Read, false, true
	}
	return 0, false, false
}

// classify resolves call as a tracked lock operation.
func (w *walker) classify(call *ast.CallExpr) (g guard, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return guard{}, false, false
	}
	mode, acq, isLock := lockMethod(sel.Sel.Name)
	if !isLock || w.cb.LockName == nil {
		return guard{}, false, false
	}
	name, tracked := w.cb.LockName(sel.X)
	if !tracked {
		return guard{}, false, false
	}
	return guard{name: name, mode: mode}, acq, true
}

// terminates reports whether a call never returns (panic and friends).
func terminates(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		full := ExprString(fun)
		switch full {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
		switch fun.Sel.Name {
		case "Fatal", "Fatalf", "FailNow", "SkipNow", "Skipf", "Skip":
			// testing.T-style terminators; harmless over-approximation
			// elsewhere.
			return true
		}
	}
	return false
}

// scan walks an expression tree (not entering function literals), firing
// lock events and OnCall, and reports whether evaluation terminates.
func (w *walker) scan(e ast.Expr, st *state) (terminated bool) {
	if e == nil {
		return false
	}
	ast.Inspect(e, func(node ast.Node) bool {
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false
		}
		call, isCall := node.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if g, acquire, ok := w.classify(call); ok {
			if acquire {
				if w.cb.OnAcquire != nil {
					w.cb.OnAcquire(g.name, g.mode, call.Pos(), st.heldNow())
				}
				ent := st.held[g]
				ent.count++
				ent.pos = call.Pos()
				st.held[g] = ent
			} else {
				ent := st.held[g]
				if ent.count <= 0 {
					if w.cb.OnUnlockUnheld != nil {
						w.cb.OnUnlockUnheld(call.Pos(), g.name, g.mode)
					}
				} else {
					ent.count--
					st.held[g] = ent
				}
			}
			return false // don't re-scan the selector
		}
		if w.cb.OnCall != nil {
			w.cb.OnCall(call, st.heldNow())
		}
		if terminates(call) {
			terminated = true
		}
		return true
	})
	return terminated
}

// stmts walks a statement list, returning the out-state and whether all
// paths terminated (returned/panicked).
func (w *walker) stmts(list []ast.Stmt, st *state) (*state, bool) {
	for _, s := range list {
		var term bool
		st, term = w.stmt(s, st)
		if term {
			return st, true
		}
	}
	return st, false
}

func (w *walker) stmt(s ast.Stmt, st *state) (*state, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return st, w.scan(s.X, st)
	case *ast.AssignStmt:
		term := false
		for _, e := range s.Rhs {
			term = w.scan(e, st) || term
		}
		for _, e := range s.Lhs {
			term = w.scan(e, st) || term
		}
		return st, term
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scan(v, st)
					}
				}
			}
		}
		return st, false
	case *ast.IncDecStmt:
		return st, w.scan(s.X, st)
	case *ast.SendStmt:
		w.scan(s.Chan, st)
		return st, w.scan(s.Value, st)
	case *ast.DeferStmt:
		w.deferCall(s.Call, st)
		return st, false
	case *ast.GoStmt:
		// The goroutine body runs without our locks; only argument
		// evaluation happens here.
		for _, a := range s.Call.Args {
			w.scan(a, st)
		}
		return st, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.scan(r, st)
		}
		if held := st.leaked(); len(held) > 0 && w.cb.OnReturnHeld != nil {
			w.cb.OnReturnHeld(s.Pos(), held)
		}
		return st, true
	case *ast.BlockStmt:
		return w.stmts(s.List, st)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, st)
	case *ast.IfStmt:
		return w.ifStmt(s, st)
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		w.scan(s.Cond, st)
		w.loopBody(s.Body, s.Pos(), st)
		return st, false
	case *ast.RangeStmt:
		w.scan(s.X, st)
		w.loopBody(s.Body, s.Pos(), st)
		return st, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		w.scan(s.Tag, st)
		return w.caseClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = w.stmt(s.Init, st)
		}
		if s.Assign != nil {
			st, _ = w.stmt(s.Assign, st)
		}
		return w.caseClauses(s.Body, st)
	case *ast.SelectStmt:
		return w.caseClauses(s.Body, st)
	}
	return st, false
}

// deferCall handles a defer: a deferred Unlock/RUnlock (directly or
// inside a deferred function literal) registers a pending release; any
// other deferred call is an ordinary call event.
func (w *walker) deferCall(call *ast.CallExpr, st *state) {
	for _, a := range call.Args {
		w.scan(a, st)
	}
	if g, acquire, ok := w.classify(call); ok && !acquire {
		st.deferred[g]++
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Releases inside a deferred closure count as deferred releases;
		// anything else in the closure is out of scope for this walk (the
		// analyzer walks the literal's body separately).
		ast.Inspect(lit.Body, func(node ast.Node) bool {
			if _, isLit := node.(*ast.FuncLit); isLit && node != lit {
				return false
			}
			if inner, isCall := node.(*ast.CallExpr); isCall {
				if g, acquire, ok := w.classify(inner); ok && !acquire {
					st.deferred[g]++
				}
			}
			return true
		})
		return
	}
	if w.cb.OnDeferCall != nil {
		w.cb.OnDeferCall(call, st.heldNow())
		return
	}
	if w.cb.OnCall != nil {
		w.cb.OnCall(call, st.heldNow())
	}
}

func (w *walker) ifStmt(s *ast.IfStmt, st *state) (*state, bool) {
	if s.Init != nil {
		st, _ = w.stmt(s.Init, st)
	}
	if w.scan(s.Cond, st) {
		return st, true
	}
	thenOut, thenTerm := w.stmts(s.Body.List, st.clone())
	elseOut, elseTerm := st.clone(), false
	if s.Else != nil {
		elseOut, elseTerm = w.stmt(s.Else, elseOut)
	}
	switch {
	case thenTerm && elseTerm:
		return st, true
	case thenTerm:
		return elseOut, false
	case elseTerm:
		return thenOut, false
	}
	return w.merge(s.Pos(), thenOut, elseOut), false
}

// merge reconciles two branch out-states, reporting any guard the
// branches disagree on and keeping the smaller count so one divergence
// does not cascade into spurious leak reports downstream. Disagreement
// is judged on the NET count (held minus deferred releases): a branch
// that acquires in read mode and one that acquires in write mode, each
// with its matching defer, are both net-zero and merge cleanly — the
// mode-conditional locking idiom of Conn.run — while a branch that
// acquires without any release diverges from one that does not.
func (w *walker) merge(pos token.Pos, a, b *state) *state {
	out := newState()
	for _, g := range unionGuards(a.held, b.held) {
		ae, be := a.held[g], b.held[g]
		if ae.count-a.deferred[g] != be.count-b.deferred[g] && w.cb.OnDiverge != nil {
			w.cb.OnDiverge(pos, g.name, g.mode)
		}
		e := ae
		if be.count < ae.count {
			e = be
		}
		if e.count > 0 || ae.count > 0 || be.count > 0 {
			out.held[g] = e
		}
	}
	for _, g := range unionDeferred(a.deferred, b.deferred) {
		ad, bd := a.deferred[g], b.deferred[g]
		d := ad
		if bd < ad {
			d = bd
		}
		if d > 0 {
			out.deferred[g] = d
		}
	}
	return out
}

func unionGuards(a, b map[guard]entry) []guard {
	seen := map[guard]bool{}
	var out []guard
	for g := range a {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	for g := range b {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].mode < out[j].mode
	})
	return out
}

func unionDeferred(a, b map[guard]int) []guard {
	seen := map[guard]bool{}
	var out []guard
	for g := range a {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	for g := range b {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].mode < out[j].mode
	})
	return out
}

// loopBody walks a loop body and requires it to be lock-neutral: a body
// that acquires more than it releases (or vice versa) diverges on every
// iteration count.
func (w *walker) loopBody(body *ast.BlockStmt, pos token.Pos, st *state) {
	out, term := w.stmts(body.List, st.clone())
	if term {
		return
	}
	for _, g := range unionGuards(st.held, out.held) {
		if st.held[g].count != out.held[g].count && w.cb.OnDiverge != nil {
			w.cb.OnDiverge(pos, g.name, g.mode)
		}
	}
}

// caseClauses walks the clauses of a switch/select body as parallel
// branches. The construct terminates only when every clause terminates
// and — for switches — a default clause exists (otherwise no clause may
// run at all).
func (w *walker) caseClauses(body *ast.BlockStmt, st *state) (*state, bool) {
	var outs []*state
	allTerm := true
	hasDefault := false
	for _, raw := range body.List {
		var stmts []ast.Stmt
		var isDefault bool
		cst := st.clone()
		switch c := raw.(type) {
		case *ast.CaseClause:
			stmts, isDefault = c.Body, c.List == nil
			for _, e := range c.List {
				w.scan(e, cst)
			}
		case *ast.CommClause:
			stmts, isDefault = c.Body, c.Comm == nil
			if c.Comm != nil {
				cst, _ = w.stmt(c.Comm, cst)
			}
		default:
			continue
		}
		hasDefault = hasDefault || isDefault
		out, term := w.stmts(stmts, cst)
		if !term {
			allTerm = false
			outs = append(outs, out)
		}
	}
	if allTerm && hasDefault && len(body.List) > 0 {
		return st, true
	}
	// Merge the fall-through clauses against the in-state: a clause that
	// changed the held set diverges from the not-taken path.
	out := st
	for _, o := range outs {
		out = w.merge(body.Pos(), out, o)
	}
	return out, false
}

// ExprString renders a (lock receiver) expression in canonical source
// form: identifiers, selector chains, derefs, indexes, and calls.
func ExprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return ExprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + ExprString(e.X)
	case *ast.ParenExpr:
		return ExprString(e.X)
	case *ast.IndexExpr:
		return ExprString(e.X) + "[" + ExprString(e.Index) + "]"
	case *ast.CallExpr:
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = ExprString(a)
		}
		return ExprString(e.Fun) + "(" + strings.Join(args, ",") + ")"
	case *ast.BasicLit:
		return e.Value
	}
	return fmt.Sprintf("<%T>", e)
}
