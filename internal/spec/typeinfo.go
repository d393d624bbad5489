package spec

// Static expression facts the compiler's lowerer and IR passes need.
// They live here rather than in package compile because they are
// properties of the language, not of any particular backend.

// ConstValue returns the value of a literal expression. BoolLit follows
// the numeric truthiness convention (true = 1, false = 0). Non-literal
// expressions return (0, false); use the compiler's constant-folding
// pass to reduce compound constant expressions first.
func ConstValue(e Expr) (float64, bool) {
	switch n := e.(type) {
	case *NumLit:
		return n.Value, true
	case *BoolLit:
		if n.Value {
			return 1, true
		}
		return 0, true
	}
	return 0, false
}
