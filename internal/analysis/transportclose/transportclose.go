// Package transportclose flags network and shard-plane resources that are
// acquired but never released.
//
// The shard plane (PR 9) hands out long-lived closable resources: net.Conn
// and net.Listener from the stdlib, and Transport implementations and the
// shard Server from internal/shardplane. Leaking one is not a memory bug Go
// cleans up — a dangling transport keeps worker goroutines and TCP sessions
// alive, a dangling listener holds its port, and the shard on the other end
// keeps serving a coordinator that is gone. The invariant: every variable
// that receives such a resource from a call must, in the same file, either
// close it (`x.Close()`, deferred or not, including inside a registered
// cleanup literal) or visibly hand ownership away — passed as a call
// argument (shardplane.NewServer(ln), engine.NewWithTransport(tr)),
// returned to the caller, or stored into a longer-lived structure
// (sc.conn = conn). A resource whose result is discarded outright can never
// be closed and is always flagged.
//
// The check is structural, not flow-sensitive: any Close/escape anywhere in
// the function body satisfies it, so it will not catch a Close on only one
// branch — it catches the leak class where no release exists at all.
// Suppress a justified exception with //lint:ignore transportclose <reason>.
package transportclose

import (
	"go/ast"
	"go/types"
	"strings"

	"graphsketch/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "transportclose",
	Doc:  "flags net.Conn/net.Listener/shardplane Transport/Server values acquired from a call but never closed, passed on, returned, or stored — leaked transports keep goroutines, ports, and remote shard sessions alive",
	Run:  run,
}

// isPlanePath matches the shard-plane package (and its golden stand-in).
func isPlanePath(path string) bool {
	return path == "shardplane" || strings.HasSuffix(path, "/shardplane")
}

// planeResources are the closable named types of the shard plane.
var planeResources = map[string]bool{
	"Transport":      true,
	"TCPTransport":   true,
	"LocalTransport": true,
	"Server":         true,
}

// isResourceType reports whether t is (a pointer to) a closable transport
// resource: a net Conn/Listener flavor or a shard-plane transport/server.
func isResourceType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	name := obj.Name()
	switch obj.Pkg().Path() {
	case "net":
		return strings.HasSuffix(name, "Conn") || strings.HasSuffix(name, "Listener")
	}
	return isPlanePath(obj.Pkg().Path()) && planeResources[name]
}

// resultResourceAt returns the call's result type at position i (handling
// single and tuple results) when it is a resource, else nil.
func resultResourceAt(pass *analysis.Pass, call *ast.CallExpr, i int) types.Type {
	t := pass.TypesInfo.TypeOf(call)
	if t == nil {
		return nil
	}
	if tup, ok := t.(*types.Tuple); ok {
		if i >= tup.Len() {
			return nil
		}
		t = tup.At(i).Type()
	} else if i != 0 {
		return nil
	}
	if isResourceType(t) {
		return t
	}
	return nil
}

// site is one resource-producing assignment awaiting a release.
type site struct {
	call *ast.CallExpr // the acquiring call, for reporting
	obj  types.Object  // the variable bound (nil = result discarded)
	name string        // resource type name, for the message
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		var sites []site
		// cleared holds variables released somewhere in the file: closed,
		// passed as a call argument, returned, or stored. Objects are
		// per-declaration, so a file-wide set keyed by object is exact.
		cleared := make(map[types.Object]bool)

		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				sites = append(sites, acquisitions(pass, n)...)
				// Aliasing or storing the resource hands ownership on:
				// `sc.conn = conn`, `c := conn`.
				for _, rhs := range n.Rhs {
					if _, isCall := rhs.(*ast.CallExpr); isCall {
						continue
					}
					markIdents(pass, rhs, cleared)
				}
				// An index-expression LHS (`s.conns[conn] = ...`) registers
				// the resource in a tracking structure.
				for _, lhs := range n.Lhs {
					if ix, ok := lhs.(*ast.IndexExpr); ok {
						markIdents(pass, ix.Index, cleared)
					}
				}
			case *ast.ExprStmt:
				// A resource returned by a call and thrown away can never
				// be closed.
				if call, ok := n.X.(*ast.CallExpr); ok {
					if t := resultResourceAt(pass, call, 0); t != nil {
						sites = append(sites, site{call: call, obj: nil, name: typeName(t)})
					}
				}
			case *ast.CallExpr:
				// x.Close() anywhere (deferred, direct, or inside a cleanup
				// literal) releases x.
				if obj := closeReceiver(pass, n); obj != nil {
					cleared[obj] = true
				}
				// A resource passed as an argument escapes to the callee.
				for _, a := range n.Args {
					markIdents(pass, a, cleared)
				}
			case *ast.ReturnStmt:
				for _, r := range n.Results {
					markIdents(pass, r, cleared)
				}
			case *ast.CompositeLit:
				// &Server{ln: ln} style construction stores the resource.
				for _, el := range n.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						markIdents(pass, kv.Value, cleared)
					} else {
						markIdents(pass, el, cleared)
					}
				}
			}
			return true
		})

		for _, s := range sites {
			if s.obj != nil && cleared[s.obj] {
				continue
			}
			if s.obj == nil {
				pass.Reportf(s.call.Pos(),
					"%s result discarded: the resource can never be closed; assign it and release it on all paths", s.name)
				continue
			}
			pass.Reportf(s.call.Pos(),
				"%s %s is acquired but never released: add `defer %s.Close()` (or pass/store/return it) so goroutines, ports, and shard sessions are not leaked",
				s.name, s.obj.Name(), s.obj.Name())
		}
	}
	return nil
}

// acquisitions collects resource-producing bindings from one assignment,
// covering both `a, b := f(), g()` and `conn, err := dial()` shapes.
func acquisitions(pass *analysis.Pass, n *ast.AssignStmt) []site {
	var out []site
	add := func(call *ast.CallExpr, lhs ast.Expr, i int) {
		t := resultResourceAt(pass, call, i)
		if t == nil {
			return
		}
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return // field/index destinations already store the resource
		}
		if id.Name == "_" {
			out = append(out, site{call: call, obj: nil, name: typeName(t)})
			return
		}
		obj := pass.TypesInfo.Defs[id]
		if obj == nil {
			obj = pass.TypesInfo.Uses[id]
		}
		if obj != nil {
			out = append(out, site{call: call, obj: obj, name: typeName(t)})
		}
	}
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		if call, ok := n.Rhs[0].(*ast.CallExpr); ok {
			for i, lhs := range n.Lhs {
				add(call, lhs, i)
			}
		}
		return out
	}
	if len(n.Lhs) == len(n.Rhs) {
		for i, rhs := range n.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok {
				add(call, n.Lhs[i], 0)
			}
		}
	}
	return out
}

// closeReceiver returns the variable x when call is x.Close() with x a
// plain identifier.
func closeReceiver(pass *analysis.Pass, call *ast.CallExpr) types.Object {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Close" {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return pass.TypesInfo.Uses[id]
}

// markIdents records every resource-typed identifier in expr as released.
func markIdents(pass *analysis.Pass, expr ast.Expr, cleared map[types.Object]bool) {
	ast.Inspect(expr, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		if isResourceType(obj.Type()) {
			cleared[obj] = true
		}
		return true
	})
}

// typeName renders the resource type for a diagnostic.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Name() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}
