package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// KeyCoverage mechanizes the cache-key audit three PRs ran by hand:
// every field of the solve-affecting options struct must be read by a
// key-derivation function, or carry an explicit //lint:allow
// keycoverage annotation stating why it cannot change the cached
// result. An unkeyed result-affecting option is a wrong-answer-from-cache
// bug — one option set silently served another's response.
//
// The struct and the key functions may live in different packages (the
// wire format declares the options, the server derives the key); field
// identity is go/types identity, which holds across the loaded program.
type KeyCoverage struct {
	// PkgPath is the package declaring the struct, relative to the
	// module root ("" = the root package itself).
	PkgPath string
	// Struct is the options struct's type name.
	Struct string
	// KeyPkgPath is the package declaring the key functions, relative to
	// the module root ("" = the root package itself).
	KeyPkgPath string
	// KeyFuncs are the key-derivation functions; a field referenced in
	// any of them counts as keyed.
	KeyFuncs []string
}

func (*KeyCoverage) Name() string { return "keycoverage" }
func (*KeyCoverage) Doc() string {
	return "every solve-affecting options field must be read by the cache-key functions or carry an explicit exemption"
}

func (a *KeyCoverage) Run(prog *Program) []Finding {
	pkg, keyPkg := prog.Pkg(a.PkgPath), prog.Pkg(a.KeyPkgPath)
	if pkg == nil || pkg.Types == nil || keyPkg == nil {
		return nil
	}
	obj := pkg.Types.Scope().Lookup(a.Struct)
	if obj == nil {
		return []Finding{{Check: a.Name(), Message: "struct " + a.Struct + " not found in " + pkg.Path}}
	}
	st, ok := obj.Type().Underlying().(*types.Struct)
	if !ok {
		return []Finding{{Check: a.Name(), Message: a.Struct + " is not a struct"}}
	}
	fields := map[types.Object]bool{} // field -> referenced in a key func
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = false
	}

	keyFuncs := map[string]bool{}
	for _, name := range a.KeyFuncs {
		keyFuncs[name] = true
	}
	seen := 0
	for _, file := range keyPkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !keyFuncs[fd.Name.Name] || fd.Body == nil {
				continue
			}
			seen++
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if s, ok := keyPkg.Info.Selections[sel]; ok && s.Kind() == types.FieldVal {
					if _, tracked := fields[s.Obj()]; tracked {
						fields[s.Obj()] = true
					}
				}
				return true
			})
		}
	}
	if seen == 0 {
		return []Finding{{Check: a.Name(), Message: "none of the key functions " + strings.Join(a.KeyFuncs, "/") + " found in " + keyPkg.Path}}
	}

	var out []Finding
	// Report in declaration order at each field's own position.
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if fields[f] {
			continue
		}
		out = append(out, finding(prog, a.Name(), f.Pos(),
			"%s.%s is not keyed by %s: a result-affecting value here is a wrong-answer-from-cache bug — key it, or annotate why it cannot change the cached result",
			a.Struct, f.Name(), strings.Join(a.KeyFuncs, "/")))
	}
	return out
}
