package analysis

import (
	"go/ast"
	"go/types"
)

// CowPub enforces the copy-on-write publication discipline every lock-free
// read path in this tree depends on (epoch views, the fleet model
// registry, trust cells): a value shared through a sync/atomic.Pointer is
// immutable once published. A value that owns a mutex and is rewritten
// only by its own methods under it, as a fleet home's view is, is not
// written through the loaded pointer and so is not flagged. Two rules:
//
//  1. a value obtained from Pointer.Load() or Pointer.Swap() is someone
//     else's published copy — writing through it (field, index, or
//     pointer-dereference assignment) is flagged anywhere in the function,
//     including through one level of aliasing;
//  2. after Pointer.Store(v) / CompareAndSwap(_, v) publishes a local, any
//     write through that local on a CFG path after the store is flagged —
//     mutate first, publish last.
var CowPub = &Analyzer{
	Name: "cowpub",
	Doc:  "values published through atomic.Pointer must not be written after Load or Store",
	Run:  runCowPub,
}

func runCowPub(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCowPub(pass, fd)
		}
	}
	return nil
}

func checkCowPub(pass *Pass, fd *ast.FuncDecl) {
	name := funcDisplayName(fd)
	loaded := loadedVars(pass.Info, fd.Body)

	// Rule 1: writes through loaded (or loaded-aliased) values, anywhere.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			base := writeThroughBase(lhs)
			if base == nil {
				continue
			}
			if v, ok := varOfIdent(pass.Info, base); ok && loaded[v] {
				pass.Reportf(lhs.Pos(), "write through %s mutates a value published via atomic.Pointer in %s (copy before writing)", base.Name, name)
			}
		}
		return true
	})

	// Rule 2: writes after the publishing store.
	checkAfterStore(pass, fd, name)
}

// loadedVars collects variables bound from Pointer.Load()/Swap() results,
// plus one level of plain-identifier aliases.
func loadedVars(info *types.Info, body *ast.BlockStmt) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	collect := func(aliasPass bool) {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := varOfIdent(info, id)
				if !ok {
					continue
				}
				if aliasPass {
					if src, ok := as.Rhs[i].(*ast.Ident); ok {
						if sv, ok := varOfIdent(info, src); ok && out[sv] {
							out[v] = true
						}
					}
					continue
				}
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
					switch atomicPtrMethod(info, call) {
					case "Load", "Swap":
						out[v] = true
					}
				}
			}
			return true
		})
	}
	collect(false)
	collect(true)
	return out
}

// checkAfterStore walks the CFG forward from every Store/CompareAndSwap of
// a local and flags writes through that local downstream.
func checkAfterStore(pass *Pass, fd *ast.FuncDecl, name string) {
	cfg := buildCFG(fd.Body)
	for _, blk := range cfg.blocks {
		for i, s := range blk.stmts {
			v := publishedVarIn(pass.Info, s)
			if v == nil {
				continue
			}
			// Same block, after the store.
			for _, later := range blk.stmts[i+1:] {
				flagWritesThrough(pass, later, v, name)
			}
			// Every reachable successor block.
			seen := map[*cfgBlock]bool{blk: true}
			var visit func(*cfgBlock)
			visit = func(b *cfgBlock) {
				for _, succ := range b.succs {
					if seen[succ] {
						continue
					}
					seen[succ] = true
					for _, s := range succ.stmts {
						flagWritesThrough(pass, s, v, name)
					}
					visit(succ)
				}
			}
			visit(blk)
		}
	}
}

// publishedVarIn matches p.Store(v) / p.Store(&v) / p.CompareAndSwap(_, v)
// statements and returns the published local.
func publishedVarIn(info *types.Info, s ast.Stmt) *types.Var {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil
	}
	var arg ast.Expr
	switch atomicPtrMethod(info, call) {
	case "Store":
		if len(call.Args) == 1 {
			arg = call.Args[0]
		}
	case "CompareAndSwap":
		if len(call.Args) == 2 {
			arg = call.Args[1]
		}
	}
	if arg == nil {
		return nil
	}
	if u, ok := arg.(*ast.UnaryExpr); ok {
		arg = u.X // Store(&local)
	}
	id, ok := arg.(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := varOfIdent(info, id); ok {
		return v
	}
	return nil
}

func flagWritesThrough(pass *Pass, s ast.Stmt, v *types.Var, fn string) {
	ast.Inspect(s, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			base := writeThroughBase(lhs)
			if base == nil {
				continue
			}
			if bv, ok := varOfIdent(pass.Info, base); ok && bv == v {
				pass.Reportf(lhs.Pos(), "write to %s after it was published via atomic.Pointer in %s (mutate before Store)", base.Name, fn)
			}
		}
		return true
	})
}

// writeThroughBase unwraps a selector/index/deref chain to its root
// identifier; a bare identifier target (rebinding) returns nil — only
// writes through the value count.
func writeThroughBase(lhs ast.Expr) *ast.Ident {
	through := false
	for {
		switch e := lhs.(type) {
		case *ast.SelectorExpr:
			through = true
			lhs = e.X
		case *ast.IndexExpr:
			through = true
			lhs = e.X
		case *ast.StarExpr:
			through = true
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.Ident:
			if through {
				return e
			}
			return nil
		default:
			return nil
		}
	}
}

func varOfIdent(info *types.Info, id *ast.Ident) (*types.Var, bool) {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v, true
	}
	v, ok := info.Uses[id].(*types.Var)
	return v, ok
}

// atomicPtrMethod returns the method name when call is a method on
// sync/atomic's Pointer[T] ("Load", "Store", "Swap", "CompareAndSwap"),
// else "".
func atomicPtrMethod(info *types.Info, call *ast.CallExpr) string {
	obj := funcObjIn(info, call.Fun)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return ""
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "Pointer" {
		return ""
	}
	return obj.Name()
}
