package lp

// Clone returns a deep copy of the problem, sharing nothing with p.
func (p *Problem) Clone() *Problem {
	q := New()
	p.CloneInto(q)
	return q
}
