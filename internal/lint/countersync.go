package lint

import (
	"go/ast"
	"go/token"
	"strconv"

	"vcomputebench/internal/lint/analysis"
)

// CounterSync is the only guard that the kernels Counters struct, its
// Add/Scale methods, and the hw codec's encode/decode field lists and
// counterFields count all cover the same field set. A field added to Counters
// but forgotten in Add silently drops work during accumulation; forgotten in
// Scale it breaks the sampling extrapolation contract; forgotten in the codec
// it round-trips as zero through the persistent snapshot store without any
// decode error. The analyzer knows two deliberate exceptions from config:
// derived fields (recomputed before recording, excluded everywhere) and
// intensive fields (accumulated but never scaled — ratios and per-group
// maxima).
func CounterSync(cfg Config) *analysis.Analyzer {
	a := &analysis.Analyzer{
		Name: "countersync",
		Doc:  "the Counters struct, its Add/Scale methods and the trace codec field lists cover the same field set",
	}
	a.Run = func(pass *analysis.Pass) error {
		rel := pass.World.Rel(pass.Pkg)
		switch rel {
		case cfg.KernelsPath:
			checkCounterMethods(pass, cfg)
		case cfg.CodecPath:
			checkCounterCodec(pass, cfg)
		}
		return nil
	}
	return a
}

// counterFieldSet resolves the Counters struct from the kernels package:
// field names in declaration order, and the wire subset (minus derived).
func counterFieldSet(pass *analysis.Pass, cfg Config) (all, wire []string, pos token.Pos, ok bool) {
	kernels := pass.World.Lookup(cfg.KernelsPath)
	if kernels == nil {
		pass.Reportf(pass.Pkg.Files[0].Package, "cannot find the %s package to resolve %s", cfg.KernelsPath, cfg.CountersType)
		return nil, nil, token.NoPos, false
	}
	st, pos := findStruct(kernels, cfg.CountersType)
	if st == nil {
		pass.Reportf(pass.Pkg.Files[0].Package, "no struct %s in %s", cfg.CountersType, cfg.KernelsPath)
		return nil, nil, token.NoPos, false
	}
	derived := make(map[string]bool)
	for _, d := range cfg.DerivedCounterFields {
		derived[d] = true
	}
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			all = append(all, name.Name)
			if !derived[name.Name] {
				wire = append(wire, name.Name)
			}
		}
	}
	return all, wire, pos, true
}

// checkCounterMethods verifies Add covers every non-derived field and Scale
// multiplies exactly the extensive ones.
func checkCounterMethods(pass *analysis.Pass, cfg Config) {
	all, wire, structPos, ok := counterFieldSet(pass, cfg)
	if !ok {
		return
	}
	inStruct := make(map[string]bool, len(all))
	for _, f := range all {
		inStruct[f] = true
	}
	intensive := make(map[string]bool)
	for _, f := range cfg.IntensiveCounterFields {
		intensive[f] = true
		if !inStruct[f] {
			pass.Reportf(structPos,
				"lint config lists intensive counter field %s but %s has no such field; update lint.DefaultConfig after the rename",
				f, cfg.CountersType)
		}
	}
	for _, d := range cfg.DerivedCounterFields {
		if !inStruct[d] {
			pass.Reportf(structPos,
				"lint config lists derived counter field %s but %s has no such field; update lint.DefaultConfig after the rename",
				d, cfg.CountersType)
		}
	}

	if add, pos := findMethod(pass.Pkg, cfg.CountersType, "Add"); add == nil {
		pass.Reportf(structPos, "%s has no Add method to audit", cfg.CountersType)
	} else {
		mentioned := selectorNames(add.Body)
		for _, f := range wire {
			if !mentioned[f] {
				pass.Reportf(pos,
					"Add does not accumulate %s; a dispatch's %s would be silently dropped when counters merge",
					f, f)
			}
		}
		for _, d := range cfg.DerivedCounterFields {
			if mentioned[d] {
				pass.Reportf(pos, "Add touches derived field %s, which is recomputed before recording and must not be accumulated", d)
			}
		}
	}

	if scale, pos := findMethod(pass.Pkg, cfg.CountersType, "Scale"); scale == nil {
		pass.Reportf(structPos, "%s has no Scale method to audit", cfg.CountersType)
	} else {
		scaled := make(map[string]bool)
		ast.Inspect(scale.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.MUL_ASSIGN {
				return true
			}
			for _, lhs := range as.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					scaled[sel.Sel.Name] = true
				}
			}
			return true
		})
		for _, f := range wire {
			switch {
			case intensive[f] && scaled[f]:
				pass.Reportf(pos,
					"Scale multiplies intensive field %s; ratios and per-group maxima must not be extrapolated by the sampling factor",
					f)
			case !intensive[f] && !scaled[f]:
				pass.Reportf(pos,
					"Scale does not multiply %s; sampling extrapolation would under-count it (if %s is intensive, add it to lint.DefaultConfig IntensiveCounterFields)",
					f, f)
			}
		}
	}
}

// checkCounterCodec verifies the codec constant and both field lists against
// the struct, in declaration order — the wire format is positional.
func checkCounterCodec(pass *analysis.Pass, cfg Config) {
	_, wire, _, ok := counterFieldSet(pass, cfg)
	if !ok {
		return
	}
	filePos := pass.Pkg.Files[0].Package

	if lit, pos := findIntConst(pass.Pkg, cfg.CounterFieldsConst); lit == nil {
		pass.Reportf(filePos, "no integer constant %s found to audit against %s", cfg.CounterFieldsConst, cfg.CountersType)
	} else if v, err := strconv.Atoi(lit.Value); err == nil && v != len(wire) {
		pass.Reportf(pos,
			"%s is %d but %s has %d wire fields; the codec would mis-frame every stored trace",
			cfg.CounterFieldsConst, v, cfg.CountersType, len(wire))
	}

	if enc, pos := findFunc(pass.Pkg, "appendCounters"); enc == nil {
		pass.Reportf(filePos, "no appendCounters encoder found to audit against %s", cfg.CountersType)
	} else {
		checkFieldOrder(pass, pos, "appendCounters", encodedSelectors(enc), wire)
	}

	if dec, pos := findFunc(pass.Pkg, "readCounters"); dec == nil {
		pass.Reportf(filePos, "no readCounters decoder found to audit against %s", cfg.CountersType)
	} else {
		checkFieldOrder(pass, pos, "readCounters", assignedSelectors(dec), wire)
	}
}

// checkFieldOrder compares an observed field sequence against the struct's
// wire order.
func checkFieldOrder(pass *analysis.Pass, pos token.Pos, where string, got, want []string) {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			pass.Reportf(pos, "%s is missing field %s; it would round-trip through the snapshot store as zero", where, want[i])
		case i >= len(want):
			pass.Reportf(pos, "%s lists %s, which is not a wire field of Counters", where, got[i])
		case got[i] != want[i]:
			pass.Reportf(pos, "%s field %d is %s, want %s (declaration order — the wire format is positional)", where, i, got[i], want[i])
			return // one misalignment cascades; a single report is clearer
		}
	}
}

// encodedSelectors extracts the field sequence of the encoder's composite
// literal ([...]float64{c.Invocations, ...}).
func encodedSelectors(fd *ast.FuncDecl) []string {
	var out []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok || out != nil {
			return true
		}
		var fields []string
		for _, elt := range lit.Elts {
			sel, ok := elt.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fields = append(fields, sel.Sel.Name)
		}
		if len(fields) > 0 {
			out = fields
		}
		return true
	})
	return out
}

// assignedSelectors extracts the field sequence a decoder assigns to, in
// statement then LHS order.
func assignedSelectors(fd *ast.FuncDecl) []string {
	var out []string
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if sel, ok := lhs.(*ast.SelectorExpr); ok {
				out = append(out, sel.Sel.Name)
			}
		}
		return true
	})
	return out
}

// selectorNames collects every selector field name mentioned in a body.
func selectorNames(body *ast.BlockStmt) map[string]bool {
	out := make(map[string]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			out[sel.Sel.Name] = true
		}
		return true
	})
	return out
}

// findStruct locates a struct type declaration by name.
func findStruct(pkg *analysis.Package, name string) (*ast.StructType, token.Pos) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return st, ts.Pos()
				}
			}
		}
	}
	return nil, token.NoPos
}

// findMethod locates a method on the named receiver type (value or pointer).
func findMethod(pkg *analysis.Package, recvType, name string) (*ast.FuncDecl, token.Pos) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != name || fd.Recv == nil || len(fd.Recv.List) != 1 {
				continue
			}
			t := fd.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			if ident, ok := t.(*ast.Ident); ok && ident.Name == recvType {
				return fd, fd.Pos()
			}
		}
	}
	return nil, token.NoPos
}

// findFunc locates a function or method by bare name.
func findFunc(pkg *analysis.Package, name string) (*ast.FuncDecl, token.Pos) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == name && fd.Body != nil {
				return fd, fd.Pos()
			}
		}
	}
	return nil, token.NoPos
}

// findIntConst locates an integer constant declaration by name.
func findIntConst(pkg *analysis.Package, name string) (*ast.BasicLit, token.Pos) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, n := range vs.Names {
					if n.Name == name && i < len(vs.Values) {
						if lit, ok := vs.Values[i].(*ast.BasicLit); ok {
							return lit, n.Pos()
						}
					}
				}
			}
		}
	}
	return nil, token.NoPos
}
