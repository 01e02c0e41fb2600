package analysis

import (
	"go/ast"
	"go/types"
)

// StateCodec type-checks the serializable-state contract that checkpoint
// format v2 rests on (module-wide, not just the deterministic set): every
// field of a struct whose MarshalState/UnmarshalState are declared in the
// analyzed package must be referenced somewhere in the same-package call
// graph of those two methods, or carry a //omflp:nostate annotation
// explaining why it is excluded (derived cache, constructor parameter, pure
// scratch). An unreferenced, unannotated field is exactly the bug class
// that breaks restore(marshal(A)) bit-identity: state added to the struct
// but forgotten in the codec.
//
// Which algorithms need a codec is not this analyzer's concern: the engine
// types a tenant's algorithm as online.Algorithm plus online.StateCodec, so
// an algorithm it builds without a codec fails to compile.
var StateCodec = &Analyzer{
	Name:        "statecodec",
	Doc:         "checks codec structs marshal every non-annotated field",
	Suppression: "nostate",
	Run:         runStateCodec,
}

func runStateCodec(pass *Pass) error {
	funcDecls := collectFuncDecls(pass)

	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		marshal := localMethodDecl(pass, funcDecls, named, "MarshalState")
		unmarshal := localMethodDecl(pass, funcDecls, named, "UnmarshalState")
		if marshal == nil && unmarshal == nil {
			continue // codec not declared here (or not a codec at all)
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		covered := fieldsReferenced(pass, funcDecls, st, marshal, unmarshal)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if covered[f] {
				continue
			}
			pass.Reportf(f.Pos(), "field %s.%s is referenced in neither MarshalState nor UnmarshalState; serialize it or annotate //omflp:nostate with why it is derived/scratch", name, f.Name())
		}
	}
	return nil
}

// collectFuncDecls maps every function and method declared in the package to
// its AST declaration.
func collectFuncDecls(pass *Pass) map[*types.Func]*ast.FuncDecl {
	out := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				out[fn] = fd
			}
		}
	}
	return out
}

// localMethodDecl returns the AST of named's method with the given name if
// that method is declared in the analyzed package, else nil (promoted or
// foreign methods have no visible body to analyze).
func localMethodDecl(pass *Pass, decls map[*types.Func]*ast.FuncDecl, named *types.Named, name string) *ast.FuncDecl {
	sel := types.NewMethodSet(types.NewPointer(named)).Lookup(pass.Pkg, name)
	if sel == nil {
		return nil
	}
	fn, ok := sel.Obj().(*types.Func)
	if !ok || fn.Pkg() != pass.Pkg {
		return nil
	}
	return decls[fn]
}

// fieldsReferenced walks the same-package static call graph rooted at the
// marshal/unmarshal methods and records which fields of st are selected
// anywhere in it. Helper functions the codec delegates to (creditsToState,
// facilitiesToState, ...) therefore count, as does passing a field to a
// helper at the call site.
func fieldsReferenced(pass *Pass, decls map[*types.Func]*ast.FuncDecl, st *types.Struct, roots ...*ast.FuncDecl) map[*types.Var]bool {
	fieldSet := map[*types.Var]bool{}
	for i := 0; i < st.NumFields(); i++ {
		fieldSet[st.Field(i)] = true
	}
	covered := map[*types.Var]bool{}
	visited := map[*ast.FuncDecl]bool{}
	var work []*ast.FuncDecl
	for _, r := range roots {
		if r != nil {
			work = append(work, r)
		}
	}
	for len(work) > 0 {
		fd := work[len(work)-1]
		work = work[:len(work)-1]
		if visited[fd] || fd.Body == nil {
			continue
		}
		visited[fd] = true
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.FieldVal {
					if f, ok := sel.Obj().(*types.Var); ok && fieldSet[f] {
						covered[f] = true
					}
				}
				// A method call on a receiver extends the call graph too;
				// resolve it below via Uses.
				if fn, ok := pass.TypesInfo.Uses[n.Sel].(*types.Func); ok && fn.Pkg() == pass.Pkg {
					if d, ok := decls[fn]; ok {
						work = append(work, d)
					}
				}
			case *ast.Ident:
				if fn, ok := pass.TypesInfo.Uses[n].(*types.Func); ok && fn.Pkg() == pass.Pkg {
					if d, ok := decls[fn]; ok {
						work = append(work, d)
					}
				}
			}
			return true
		})
	}
	return covered
}
