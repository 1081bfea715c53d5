// Package latchorder is the lock-discipline check. One lockflow walk per
// function body (declared or literal) serves two rules.
//
// Pairing, local to the body: every guard whose type carries niladic
// Lock/Unlock (sync.Mutex, sync.RWMutex, any embedder) is released on
// every return path, explicitly or by defer. Under fault injection every
// error is a live return path, so a lock released only on the happy path
// is a deadlock waiting for the first injected fault. Flagged:
//
//   - a return (or the fall-off end of the body) reached with a guard
//     still held and no deferred release covering it;
//   - an Unlock/RUnlock with no matching acquisition in the same body
//     (including an RUnlock paired with a Lock, and vice versa);
//   - branches that disagree about whether a guard is held.
//
// A function literal is its own body: a literal that unlocks its
// enclosing function's lock is flagged in the literal.
//
// Ordering, across the module: for every function, which of the engine's
// latches are held at each call site, propagated through the approximate
// call graph. Rejected:
//
//  1. cycles in the resulting lock-order graph — two code paths that
//     acquire the same pair of latches in opposite orders can deadlock
//     as soon as they run concurrently; and
//  2. blocking I/O (file opens, fsync-class operations, file removal)
//     reachable while the session statement lock is held, outside the
//     designated flush paths.
//
// Tracked latch classes are the repo's real guards, matched by owning
// type and field name:
//
//	Conn.mu       the per-session statement lock
//	Database.ddl  the schema latch (shared per statement, exclusive for DDL)
//	Database.rw   the retired database-wide statement lock (kept for fixtures)
//	latchTable.mu the relation-latch directory latch
//	relLatch.mu   the per-relation statement latches (one class, "rel.latch";
//	              instances are ordered among themselves by relation name)
//	pool.mu       the buffer-pool frame latch
//	Mem.mu/Disk.mu  the storage backend latches (one class, "storage.mu")
//	Schedule.mu   the fault-schedule latch
//	Manager.syncMu  the WAL group-commit leader latch ("wal.sync")
//	Manager.mu    the WAL append latch ("wal.mu"; innermost, ordered
//	              under the leader latch and the buffer-pool latch)
//
// Per-package, the Run pass walks each function with the lockflow
// simulator, reports the pairing rules, and exports a fact: direct
// acquisitions (with the classes held at that moment), resolvable call
// sites (with held classes), direct blocking operations, and function
// literals passed as call arguments. The Finish pass runs once after
// every package: it links interface-method calls to their concrete
// implementations by method-set matching, propagates held-latch sets to
// a fixpoint, derives the global lock-order graph, and reports cycles
// and statement-lock blocking.
//
// A function that legitimately performs blocking I/O under the statement
// lock — DDL creating relation files, checkpoint/close flushing and
// syncing — is designated in source with a directive comment on its
// declaration:
//
//	//tdbvet:flushpath <reason>
//
// Designation stops statement-lock propagation through that function's
// calls and silences its own blocking sites; like //tdbvet:ignore, the
// mandatory reason keeps every exception visible in review.
//
// Function literals passed as arguments are approximated as "invoked by
// the callee while holding the callee's direct acquisitions" — exactly
// the Conn.run(fn) shape the statement path uses — so execution under
// the statement lock is visible to the analysis even though the call of
// fn itself is dynamic.
//
// Relation latches are handed across function boundaries: relLatch.lock
// returns holding the latch, and relLatch.unlock releases a latch it
// never acquired. A second directive designates each hand-off function:
//
//	//tdbvet:latchpoint <reason>
//
// A latchpoint is exempt from the pairing rules and transfers its direct
// acquisitions to its caller. The Finish pass propagates transfers
// through the call graph (a call to latchSet.acquire leaves the caller
// holding rel.latch until a call whose chain releases it, so sites
// between acquire and release are analyzed under the latch), subtracts
// releasing chains so a statement that acquires and defers the release
// transfers nothing to ITS caller, and rejects any direct acquisition of
// a latchpoint-owned class outside a latchpoint — the sorted-order
// argument for deadlock freedom rests on every relation latch passing
// through latchSet.acquire.
package latchorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"tdbms/internal/analysis"
	"tdbms/internal/analysis/callgraph"
	"tdbms/internal/analysis/lockflow"
)

// name is the check name, shared with the Finish pass's fact lookups.
const name = "latchorder"

// Analyzer is the latch-discipline check.
var Analyzer = &analysis.Analyzer{
	Name:   name,
	Doc:    "no lock-order cycles among engine latches; no blocking I/O under the statement lock outside designated flush paths",
	Run:    run,
	Finish: finish,
}

// classes maps "OwnerType.field" of a tracked latch to its class label.
// Matching is package-blind (the repo has one engine; fixtures reuse the
// type names), and both storage backends share one class: they are the
// same rank in the latch order.
var classes = map[string]string{
	"Conn.mu":        "conn.mu",
	"Database.ddl":   "db.ddl",
	"Database.rw":    "db.rw",
	"latchTable.mu":  "latchTable.mu",
	"relLatch.mu":    "rel.latch",
	"pool.mu":        "buffer.pool.mu",
	"Mem.mu":         "storage.mu",
	"Disk.mu":        "storage.mu",
	"Schedule.mu":    "faultfs.mu",
	"Manager.syncMu": "wal.sync",
	"Manager.mu":     "wal.mu",
}

// stmtClasses are the latches a statement holds for its whole duration:
// blocking I/O under any of them stalls concurrent statements, which is
// what rule 2 polices.
var stmtClasses = map[string]bool{
	"conn.mu": true, "db.rw": true, "db.ddl": true, "rel.latch": true,
}

// blockingOps are the blocking operations of rule 2, by callee
// ObjectKey: filesystem metadata operations and fsync-class calls. Page
// ReadAt/WriteAt are deliberately absent — paged I/O under the buffer
// latch is the engine's designated duty cycle, and rule 1 covers its
// ordering.
var blockingOps = map[string]bool{
	"os.OpenFile":        true,
	"os.Open":            true,
	"os.Create":          true,
	"os.ReadFile":        true,
	"os.WriteFile":       true,
	"os.Remove":          true,
	"os.RemoveAll":       true,
	"os.Rename":          true,
	"os.MkdirAll":        true,
	"os.ReadDir":         true,
	"os.(File).Sync":     true,
	"os.(File).Close":    true,
	"os.(File).Truncate": true,
}

// flushDirective designates a function as a sanctioned flush path.
const flushDirective = "//tdbvet:flushpath"

// latchDirective designates a function as a sanctioned latch hand-off
// point: its direct acquisitions transfer to the caller, and its classes
// may not be acquired anywhere else.
const latchDirective = "//tdbvet:latchpoint"

// FnFact is the per-function summary exported to the fact store.
type FnFact struct {
	Key        string
	Designated bool      // carries a //tdbvet:flushpath directive
	Latchpoint bool      // carries a //tdbvet:latchpoint directive
	Acquires   []Acquire // direct latch acquisitions
	Calls      []Site    // resolvable call sites (callee key in Op)
	Blocks     []Site    // direct blocking operations (op key in Op)
	Lits       []LitCall // function literals passed as arguments
	Transfers  []string  // classes still held at some return (plus latchpoint acquisitions)
	Releases   []string  // classes released without a matching local acquisition
}

// Acquire is one direct latch acquisition.
type Acquire struct {
	Class string
	Pos   token.Pos
	Held  []string // classes held just before
}

// Site is one call site: Op is the callee's ObjectKey (Calls) or the
// blocking operation's key (Blocks). Deferred marks a call that runs at
// function return rather than at its source position.
type Site struct {
	Op       string
	Pos      token.Pos
	Held     []string
	Deferred bool
}

// LitCall records a function literal passed as an argument: Lit is the
// literal's node key, Callee the receiving function.
type LitCall struct {
	Lit    string
	Callee string
	Pos    token.Pos
}

// ifaceFact retains the *types.Func of an interface method that appears
// as a callee, for method-set resolution in Finish. Safe to hold: the
// whole analysis shares one loader session.
type ifaceFact struct {
	m *types.Func
}

func run(pass *analysis.Pass) {
	fns := callgraph.Functions(pass.Files, pass.Info)
	litKeys := map[*ast.FuncLit]string{}
	for _, fn := range fns {
		if fn.Lit != nil {
			litKeys[fn.Lit] = fn.Key
		}
	}
	for _, fn := range fns {
		handoff, latchpoint := directive(pass, fn.Decl, latchDirective, latchReason)
		_, flushpath := directive(pass, fn.Decl, flushDirective, flushReason)
		fact := &FnFact{Key: fn.Key, Designated: flushpath, Latchpoint: latchpoint}
		classOf := map[string]string{} // tracked guard expression -> latch class
		classes := func(held []lockflow.Held) []string {
			seen := map[string]bool{}
			var out []string
			for _, h := range held {
				if c, ok := classOf[h.Name]; ok && !seen[c] {
					seen[c] = true
					out = append(out, c)
				}
			}
			sort.Strings(out)
			return out
		}
		transfers := map[string]bool{}
		releases := map[string]bool{}
		site := func(call *ast.CallExpr, held []lockflow.Held, deferred bool) {
			callee := callgraph.Callee(pass.Info, call)
			if callee == nil {
				return
			}
			key := analysis.ObjectKey(callee)
			hs := classes(held)
			fact.Calls = append(fact.Calls, Site{Op: key, Pos: call.Pos(), Held: hs, Deferred: deferred})
			if blockingOps[key] {
				fact.Blocks = append(fact.Blocks, Site{Op: key, Pos: call.Pos(), Held: hs})
			}
			if interfaceOf(callee) != nil {
				pass.ExportFact("iface:"+key, ifaceFact{callee})
			}
			for _, arg := range call.Args {
				if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
					if lk, ok := litKeys[lit]; ok {
						fact.Lits = append(fact.Lits, LitCall{Lit: lk, Callee: key, Pos: call.Pos()})
					}
				}
			}
		}
		// One walk per body serves both rules. Every sync guard is paired
		// (a latchpoint hands its latch across the function boundary by
		// design, so it is exempt); only the latch classes feed the fact.
		lockflow.Walk(fn.Body, &lockflow.Callbacks{
			LockName: func(recv ast.Expr) (string, bool) {
				class, isClass := classFor(pass.Info, recv)
				if !isClass && !isSyncGuard(pass.Info, recv) {
					return "", false
				}
				name := lockflow.ExprString(recv)
				if isClass {
					classOf[name] = class
				}
				return name, true
			},
			OnAcquire: func(name string, mode lockflow.Mode, pos token.Pos, heldBefore []lockflow.Held) {
				if class, ok := classOf[name]; ok {
					fact.Acquires = append(fact.Acquires, Acquire{Class: class, Pos: pos, Held: classes(heldBefore)})
				}
			},
			OnCall: func(call *ast.CallExpr, held []lockflow.Held) {
				site(call, held, false)
			},
			OnDeferCall: func(call *ast.CallExpr, held []lockflow.Held) {
				site(call, held, true)
			},
			// A class still held at a return transfers to the caller; a
			// release with no matching local acquisition releases on the
			// caller's behalf. Both feed the Finish pass's carried-set
			// propagation.
			OnReturnHeld: func(pos token.Pos, held []lockflow.Held) {
				for _, h := range held {
					if class, ok := classOf[h.Name]; ok {
						transfers[class] = true
					}
					if !handoff {
						p := pass.Fset.Position(h.Pos)
						pass.Report(pos, "returns with %s still locked (acquired at %s:%d); release on every path or use defer",
							h, filepath.Base(p.Filename), p.Line)
					}
				}
			},
			OnUnlockUnheld: func(pos token.Pos, name string, mode lockflow.Mode) {
				if class, ok := classOf[name]; ok {
					releases[class] = true
				}
				if !handoff {
					op, want := "Unlock", "Lock"
					if mode == lockflow.Read {
						op, want = "RUnlock", "RLock"
					}
					pass.Report(pos, "%s of %s without a matching %s in this function (lock ownership must not cross function boundaries)",
						op, name, want)
				}
			},
			OnDiverge: func(pos token.Pos, name string, mode lockflow.Mode) {
				if !handoff {
					pass.Report(pos, "%s is held on some but not all paths through this statement", lockflow.Held{Name: name, Mode: mode})
				}
			},
		})
		// The mode-conditional latchpoint idiom (Lock one branch, RLock the
		// other) merges to an empty net held set, so the leak is invisible
		// to OnReturnHeld; the directive states the transfer explicitly.
		if fact.Latchpoint {
			for _, a := range fact.Acquires {
				transfers[a.Class] = true
			}
		}
		fact.Transfers = sortedKeys(transfers)
		fact.Releases = sortedKeys(releases)
		pass.ExportFact("fn:"+fn.Key, fact)
	}
}

// sortedKeys flattens a class set for the fact store.
func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Reasons demanded of a reasonless directive.
const (
	latchReason = "latchpoint directive needs a reason: \"//tdbvet:latchpoint <why this function hands its latch to the caller>\""
	flushReason = "flushpath directive needs a reason: \"//tdbvet:flushpath <why this path may block under the statement lock>\""
)

// directive reports whether the declaration's doc carries the directive
// and whether it is well formed. A reasonless directive is reported and
// does not designate.
func directive(pass *analysis.Pass, decl *ast.FuncDecl, prefix, reasonless string) (present, designates bool) {
	if decl == nil || decl.Doc == nil {
		return false, false
	}
	for _, c := range decl.Doc.List {
		if !strings.HasPrefix(c.Text, prefix) {
			continue
		}
		if strings.TrimSpace(strings.TrimPrefix(c.Text, prefix)) == "" {
			pass.Report(c.Pos(), "%s", reasonless)
			return true, false
		}
		return true, true
	}
	return false, false
}

// isSyncGuard reports whether recv's type is a lockable guard: its
// pointer method set has niladic Lock and Unlock — sync.Mutex,
// sync.RWMutex, or anything embedding one.
func isSyncGuard(info *types.Info, recv ast.Expr) bool {
	tv, ok := info.Types[recv]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if _, isPtr := t.(*types.Pointer); !isPtr {
		t = types.NewPointer(t)
	}
	return hasNiladic(t, "Lock") && hasNiladic(t, "Unlock")
}

func hasNiladic(t types.Type, name string) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < ms.Len(); i++ {
		f := ms.At(i).Obj()
		if f.Name() != name {
			continue
		}
		sig, ok := f.Type().(*types.Signature)
		return ok && sig.Params().Len() == 0 && sig.Results().Len() == 0
	}
	return false
}

// classFor resolves a lock receiver expression ("c.mu", "db.rw") to its
// latch class: the receiver must be a field selection whose owner type
// and field name are in the classes table.
func classFor(info *types.Info, recv ast.Expr) (string, bool) {
	sel, ok := ast.Unparen(recv).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return "", false
	}
	t := tv.Type
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	class, ok := classes[named.Obj().Name()+"."+sel.Sel.Name]
	return class, ok
}

func interfaceOf(f *types.Func) *types.Interface {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	return iface
}
