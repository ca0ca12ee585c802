package lint

import (
	"go/ast"
	"go/types"
)

// BulkOnly mechanizes the PR 4 devirtualization audit: Go does not
// devirtualise generic method calls, so engine code that evaluates the
// transition F per candidate inside a loop pays a dictionary call per
// cell — the exact cliff the algebra.Kernel bulk primitives
// (RelaxPanel, ReduceRelax, FoldSplitPanel, ...) exist to amortise.
// Engine packages therefore may not call `<instance>.F(...)` inside a
// loop: candidate work flows through the bulk primitives (passing the
// F *value* to a kernel is the sanctioned pattern and is not flagged).
// Deliberate reference scans and FRow-absent fallbacks carry
// //lint:allow bulkonly annotations naming the bulk path that
// supersedes them.
type BulkOnly struct {
	// Packages restricts the scan to these module-relative package
	// paths (nil = every loaded package).
	Packages []string
}

func (*BulkOnly) Name() string { return "bulkonly" }
func (*BulkOnly) Doc() string {
	return "engine packages must not call Instance.F/Chain.F per candidate inside loops; use the algebra.Kernel bulk primitives"
}

func (a *BulkOnly) Run(prog *Program) []Finding {
	var out []Finding
	for _, pkg := range targetPackages(prog, a.Packages) {
		for _, file := range pkg.Files {
			var walk func(n ast.Node, inLoop bool)
			walk = func(n ast.Node, inLoop bool) {
				if n == nil {
					return
				}
				switch n := n.(type) {
				case *ast.ForStmt, *ast.RangeStmt:
					inLoop = true
				case *ast.CallExpr:
					if inLoop {
						if recv, ok := fCallReceiver(pkg, n); ok {
							out = append(out, finding(prog, a.Name(), n.Pos(),
								"per-candidate %s.F call inside a loop costs a dictionary call per cell: fold candidates through an algebra.Kernel bulk primitive instead, or annotate why this path is not hot", recv))
						}
					}
				}
				for _, child := range childNodes(n) {
					walk(child, inLoop)
				}
			}
			walk(file, false)
		}
	}
	return out
}

// fCallReceiver reports whether call is `<expr>.F(...)` on a value
// receiver (not a package selector) and names the receiver.
func fCallReceiver(pkg *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "F" {
		return "", false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := pkg.Info.Uses[id].(*types.PkgName); isPkg {
			return "", false
		}
		return id.Name, true
	}
	return "receiver", true
}

// childNodes returns n's direct AST children, letting analyzers thread
// their own state through a recursive walk (ast.Inspect only offers a
// subtree visitor).
func childNodes(n ast.Node) []ast.Node {
	var out []ast.Node
	ast.Inspect(n, func(c ast.Node) bool {
		if c == nil || c == n {
			return true
		}
		out = append(out, c)
		return false
	})
	return out
}
