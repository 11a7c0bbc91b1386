// Package epochguard enforces the reading discipline of cached decode
// snapshots: the query oracle's, the one decode cache in the module.
//
// A field holding a cached decode result — marked by a field comment
// containing the word "cached" — is only coherent while its staleness
// signal says so: the oracle's snapshot is valid only while its recorded
// epoch matches the mutation epoch, and a nil-when-stale cache only while
// non-nil. Reading such a field from a function that neither consults the
// field in a condition (an epoch/nil staleness check) nor holds a rebuild
// lock is exactly the bug class the epoch cache is designed out of:
// serving a pre-mutation snapshot.
//
// The rule, per function (including its nested literals): a READ of a
// marked field is allowed only if the function
//
//   - contains an if/for/switch whose init or condition references that
//     field (the staleness check guarding the fast path), or
//   - acquires a lock (calls .Lock() or .RLock()), the single-flight
//     rebuild path, under which the field is stable by construction.
//
// WRITES — invalidation (`b.snap = nil`), publication (`b.snap = &s`,
// `o.snap.Store(s)`) — are always allowed; they are how the protocol is
// maintained, and flagging them would invert the rule.
package epochguard

import (
	"go/ast"
	"go/types"
	"regexp"

	"graphsketch/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "epochguard",
	Doc:  "flags reads of cached-snapshot struct fields (field comment containing \"cached\") in functions with neither a condition referencing the field (staleness check) nor a Lock/RLock call (rebuild path)",
	Run:  run,
}

// cachedMarker marks a struct field as a cached decode snapshot.
var cachedMarker = regexp.MustCompile(`(?i)\bcached\b`)

func run(pass *analysis.Pass) error {
	// 1. Marked fields declared in this package.
	marked := map[types.Object]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				if !fieldMarked(field) {
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						marked[obj] = true
					}
				}
			}
			return true
		})
	}
	if len(marked) == 0 {
		return nil
	}

	// 2. Per function: classify uses and check the discipline.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd, marked)
		}
	}
	return nil
}

// fieldMarked reports whether the field's doc or line comment carries the
// "cached" marker.
func fieldMarked(field *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg != nil && cachedMarker.MatchString(cg.Text()) {
			return true
		}
	}
	return false
}

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, marked map[types.Object]bool) {
	body := fd.Body

	// Writes: assignment targets and atomic .Store receivers.
	writes := map[ast.Node]bool{}
	// Guarded: marked fields referenced from an if/for/switch init or
	// condition anywhere in this function.
	guarded := map[types.Object]bool{}
	locked := false

	ast.Inspect(body, func(n ast.Node) bool {
		var guards []ast.Node
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := st.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Store":
					// x.field.Store(v): publication through an atomic
					// field — a write to the cache slot.
					if inner, ok := sel.X.(*ast.SelectorExpr); ok {
						writes[inner] = true
					}
				case "Lock", "RLock":
					locked = true
				}
			}
		case *ast.IfStmt:
			guards = append(guards, st.Cond)
			if st.Init != nil {
				guards = append(guards, st.Init)
			}
		case *ast.ForStmt:
			if st.Cond != nil {
				guards = append(guards, st.Cond)
			}
			if st.Init != nil {
				guards = append(guards, st.Init)
			}
		case *ast.SwitchStmt:
			if st.Tag != nil {
				guards = append(guards, st.Tag)
			}
			if st.Init != nil {
				guards = append(guards, st.Init)
			}
		}
		for _, g := range guards {
			ast.Inspect(g, func(m ast.Node) bool {
				if sel, ok := m.(*ast.SelectorExpr); ok {
					if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil && marked[obj] {
						guarded[obj] = true
					}
				}
				return true
			})
		}
		return true
	})

	if locked {
		return // rebuild/mutation path: the field is stable under the lock
	}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || writes[sel] {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || !marked[obj] || guarded[obj] {
			return true
		}
		pass.Reportf(sel.Pos(),
			"cached-snapshot field %s read in %s, which neither checks the field's staleness (no condition references it) nor holds a rebuild lock; a stale decode can be served — guard the read with the epoch/nil check or take the lock",
			obj.Name(), fd.Name.Name)
		return true
	})
}
