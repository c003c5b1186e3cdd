package lint

import (
	"go/ast"
	"go/types"
)

func init() { RegisterRule(streamerr{}) }

// streamerr enforces the stream error contract (PR 3): a fallible stream
// exhausts early and parks its error in Err(), so exhaustion with a
// pending Err is a failure, never a short success. Any function that
// drains a stream to exhaustion — a NextBatch call, or a call to the
// stream package's Next, inside a loop — must therefore consult Err
// before returning; otherwise a truncated file silently partitions as a
// smaller graph.
//
// Stream plumbing is exempt: methods named Next or NextBatch are
// themselves the wrappers that forward error state instead of checking
// it (their callers hold the contract).
type streamerr struct{}

func (streamerr) Name() string { return "streamerr" }

func (streamerr) Doc() string {
	return "functions draining a stream.Stream (NextBatch, or *stream.Buffered's Next) to exhaustion must check Err() before returning"
}

func (streamerr) Check(pkg *Package) []Finding {
	var out []Finding
	eachFunc(pkg, func(file *ast.File, fd *ast.FuncDecl) {
		if fd.Name.Name == "Next" || fd.Name.Name == "NextBatch" {
			return
		}
		drainPos := drainCallInLoop(pkg, fd.Body)
		if drainPos == nil {
			return
		}
		if checksErr(pkg, fd.Body) {
			return
		}
		out = append(out, finding(pkg, "streamerr", drainPos.Pos(),
			fd.Name.Name+" drains a stream to exhaustion without checking Err(); a truncated stream would pass as a short success"))
	})
	return out
}

// drainCallInLoop returns a NextBatch/Next stream call nested inside a
// loop within body, or nil. NextBatch is matched by name (the name is
// unique to the stream contract); Next only when type information proves
// it is the stream package's Next, since the bare name is ubiquitous.
// Closures count as part of their enclosing function: a drain loop built
// inside a func literal still obliges the function to check Err.
func drainCallInLoop(pkg *Package, body *ast.BlockStmt) ast.Node {
	var found ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			// Search the whole loop — init, condition, post, and body all
			// count as "inside the loop".
		default:
			return true
		}
		ast.Inspect(n, func(c ast.Node) bool {
			if call, ok := c.(*ast.CallExpr); ok && isStreamDrainCall(pkg, call) {
				found = call
				return false
			}
			return found == nil
		})
		return found == nil
	})
	return found
}

// isStreamDrainCall reports whether call pulls edges off a stream: any
// X.NextBatch(...), or a Next method call that type information resolves
// to the stream package (*stream.Buffered's).
func isStreamDrainCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := unwrapIndex(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "NextBatch":
		return true
	case "Next":
		return isStreamFunc(pkg, sel.Sel)
	}
	return false
}

// checksErr reports whether body contains an Err() consultation: a call
// to any .Err() method or to stream.Err(s), or a bare Err(s) call that
// type information resolves to the stream package's own Err (as inside
// package stream).
func checksErr(pkg *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := unwrapIndex(call.Fun).(type) {
		case *ast.SelectorExpr:
			found = fun.Sel.Name == "Err"
		case *ast.Ident:
			found = fun.Name == "Err" && isStreamFunc(pkg, fun)
		}
		return !found
	})
	return found
}

// isStreamFunc reports whether type information resolves id to a function
// or method of the stream package.
func isStreamFunc(pkg *Package, id *ast.Ident) bool {
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && pathHasSuffix(fn.Pkg().Path(), "internal/stream")
}
