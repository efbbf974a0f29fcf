package main

import "time"

// The box is a shared virtual machine whose speed wanders by ±15 % and more
// on a time scale of ten to twenty seconds — as long as a pass — so two
// passes of the same code over the same inputs differ by whichever plateau
// each happened to land on, and no statistic taken inside one pass removes
// that. What does is a yardstick measured alongside: a fixed piece of the
// benchmark's own code, the reference kernel, is timed at every unit boundary
// of a pass, and a unit's speed index is the kernel's median time around that
// unit over its nominal time. Every latency sample booked in a unit, and
// every unit's wall time, is divided by that unit's index, which turns the
// end-to-end times into milliseconds on the reference box at its calm speed
// (and the rate into decisions per such second). The kernel is benchmark
// code, not code under test: a change to the repository cannot move it, so
// every gain or loss in the program shows in full. Latencies the flush timer
// paces (online-durable's open-loop phase, which runs outside the units) are
// reported as measured.

// refNominalUs is what one refKernel call takes on the reference box in a calm
// hour; it only fixes the scale of the index (1.0 there).
const refNominalUs = 950.0

const refWords = 1 << 16

var (
	refBuf  = make([]float64, refWords) // 512 KiB: cache-resident, like a round's working set
	refPerm = func() []int32 {
		ix := make([]int32, refWords)
		x := uint64(12345)
		for i := range ix {
			x = splitmix64(x)
			ix[i] = int32(x % refWords)
		}
		return ix
	}()
	refSink float64
)

// refKernel is the yardstick: floating-point updates through an index vector,
// the access pattern of sparse pivoting, over a working set that stays in the
// core's cache. It allocates nothing and touches no package under test.
func refKernel() {
	s := 0.0
	for rep := 0; rep < 8; rep++ {
		for i, j := range refPerm {
			refBuf[j] = refBuf[j]*0.999 + float64(i&7)
			s += refBuf[j]
		}
	}
	refSink = s
}

// speedSamples is how many kernel timings one boundary takes: a unit's index
// rests on the two boundaries around it.
const speedSamples = 5

// sampleSpeed times the reference kernel at a unit boundary. The goroutine
// that coordinates the workload calls it, between units; the clock of an open
// timed segment does not run meanwhile.
func (p *pass) sampleSpeed() {
	begin := time.Now()
	xs := make([]float64, speedSamples)
	for i := range xs {
		t := time.Now()
		refKernel()
		xs[i] = us(time.Since(t))
	}
	p.mu.Lock()
	p.refUs = append(p.refUs, xs)
	if !p.segStart.IsZero() {
		p.segStart = p.segStart.Add(time.Since(begin))
	}
	p.mu.Unlock()
}

// speedOf is unit u's speed index — the kernel's median time over the
// boundaries before and after the unit, over its nominal time; above 1 the
// box was slower than the reference. 1 for a sample booked outside any unit
// (online-durable's open-loop phase, which the flush timer paces).
func (p *pass) speedOf(u int) float64 {
	if u >= len(p.unitAt) || u+1 >= len(p.refUs) {
		return 1
	}
	xs := append(append([]float64(nil), p.refUs[u]...), p.refUs[u+1]...)
	return median(xs) / refNominalUs
}

// speedIndex is the pass's overall index, for the record (proc.speed_index).
func (p *pass) speedIndex() float64 {
	var all []float64
	for _, xs := range p.refUs {
		all = append(all, xs...)
	}
	if len(all) == 0 {
		return 1
	}
	return median(all) / refNominalUs
}

// normalise divides each latency sample by the speed index of the unit it was
// booked in.
func (p *pass) normalise(xs []float64, at []int) []float64 {
	idx := make([]float64, len(p.unitAt)+1)
	for u := range idx {
		idx[u] = p.speedOf(u)
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / idx[min(at[i], len(idx)-1)]
	}
	return out
}
