package vet

import "go/types"

// exportedPredictorName returns the name of an exported type of pkg whose
// pointer method set has the Predictor shape, or "".
func exportedPredictorName(pkg *types.Package) string {
	for _, named := range predictorTypes(pkg) {
		if obj := named.Obj(); obj.Exported() {
			return obj.Name()
		}
	}
	return ""
}

// interfaceNamed is a tiny helper kept close to the rule that needs it:
// it reports whether t is (a pointer to) the named type path.name.
func interfaceNamed(t types.Type, path, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}
