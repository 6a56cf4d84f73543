// Package ctxsend enforces the repo's send-plumbing contract: PR 6
// gave every fabric one ctx-taking Send(ctx, to, msg) signature so a
// protocol round's deadline reaches the socket — a Send that fabricates
// its own context.Background() defeats that, and a Send whose error is
// discarded silently loses the delivery accounting msg_dropped exists
// for.
//
// Two rules, applied in protocol packages:
//
//  1. The first argument of a Send call must not be
//     context.Background() or context.TODO() — thread the caller's ctx.
//  2. A Send call's error must not be discarded (`_ = x.Send(...)` or a
//     bare statement call).
//
// Both are waived by //flasks:fire-and-forget on the line (or the line
// above) for sends whose failure handling genuinely lives elsewhere —
// e.g. the client's request launcher, where acks and per-op retry
// timers own delivery.
package ctxsend

import (
	"go/ast"

	"dataflasks/internal/analysis"
)

// Marker is the annotation that waives both rules.
const Marker = "fire-and-forget"

// scope lists the protocol package names the contract applies to.
// Fabric implementations (transport) and harnesses construct contexts
// legitimately and are out of scope.
var scope = map[string]bool{
	"pss":         true,
	"slicing":     true,
	"aggregate":   true,
	"antientropy": true,
	"gossip":      true,
	"core":        true,
	"client":      true,
	"dht":         true,
	"dataflasks":  true,
}

// Analyzer is the ctxsend pass.
var Analyzer = &analysis.Analyzer{
	Name: "ctxsend",
	Doc:  "protocol Sends must thread the caller ctx and not discard the error",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if !scope[pass.Pkg.Name] {
		return nil
	}
	for _, f := range pass.Pkg.Files {
		imports := analysis.Imports(f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCtxArg(pass, imports, n)
			case *ast.AssignStmt:
				checkDiscard(pass, n)
			case *ast.ExprStmt:
				if call, ok := n.X.(*ast.CallExpr); ok && isSendCall(call) {
					if !pass.Annotated(call.Pos(), Marker) {
						pass.Reportf(call.Pos(), "Send result ignored; handle the error (or annotate //flasks:fire-and-forget)")
					}
				}
			}
			return true
		})
	}
	return nil
}

// isSendCall reports whether call invokes a method named Send through
// a selector. Qualified function calls would match too, but no
// imported package exports a function (vs method) named Send.
func isSendCall(call *ast.CallExpr) bool {
	return analysis.MethodName(call) == "Send" && len(call.Args) >= 2
}

func checkCtxArg(pass *analysis.Pass, imports map[string]string, call *ast.CallExpr) {
	if !isSendCall(call) {
		return
	}
	arg, ok := call.Args[0].(*ast.CallExpr)
	if !ok {
		return
	}
	for _, name := range [2]string{"Background", "TODO"} {
		if analysis.IsPkgFunc(imports, arg, "context", name) {
			if !pass.Annotated(call.Pos(), Marker) {
				pass.Reportf(arg.Pos(), "Send fabricates context.%s(); thread the caller's ctx (or annotate //flasks:fire-and-forget)", name)
			}
			return
		}
	}
}

// checkDiscard flags `_ = x.Send(...)`.
func checkDiscard(pass *analysis.Pass, assign *ast.AssignStmt) {
	if len(assign.Rhs) != 1 {
		return
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || !isSendCall(call) {
		return
	}
	for _, lhs := range assign.Lhs {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			return
		}
	}
	if !pass.Annotated(assign.Pos(), Marker) {
		pass.Reportf(assign.Pos(), "Send error discarded with _ =; handle it (or annotate //flasks:fire-and-forget)")
	}
}
