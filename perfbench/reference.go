package main

import "runtime"

// The host this benchmark runs on is shared, and its speed drifts by up
// to 2× over tens of seconds as neighbours load its caches and cores
// (README.md, "Noise on a shared host"). Host seconds alone therefore
// measure the neighbours as much as the code. The timed run brackets
// every measured sample with a fixed reference kernel, owned by this
// benchmark and independent of the code under test, and reports
// each sample in reference-host seconds: its host time divided by the
// mean of the two kernel times around it, times refNominal. A slower
// moment slows the kernel and the sample alike, and the quotient keeps
// what the code itself costs.

// refNominal is the reference kernel's typical time, in seconds, on the
// reference host (Intel Xeon, nproc 2, Go 1.24). It only sets the scale
// of the reported seconds; it must not change while results are
// compared.
const refNominal = 0.08

// refKernel is the reference work, in two parts that slow with the
// host in different ways. The first is one long dependent chain of
// integer operations (xorshift) with no memory traffic: it measures the
// speed the host gives one core at the moment: its clock and what
// neighbours take from it. The second is an
// event-heap loop shaped like a discrete-event simulator's hot path,
// with a working set of a few MiB: it slows when neighbours crowd the
// shared caches and memory. On the reference host, interleaved with the
// four workloads over two 4–7 minute traces, this pair tracked the
// workloads' slowdowns better than either part alone and better than
// pointer-chasing or small-heap kernels.
func refKernel() float64 {
	runtime.GC()
	t0 := clock()
	x := uint64(88172645463325252)
	for i := uint64(0); i < 14_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		x += i * 0x9e37
	}
	refSink += x + heapLoop(1<<16, 1<<17, 40_000)
	return float64(clock()-t0) / 1e9
}

var refSink uint64

type refPacket struct {
	flow uint32
	size int
	_    [6]uint64
}

type refEvent struct {
	at uint64
	p  *refPacket
}

// heapLoop keeps pending events in a binary heap over nflows flows and
// dispatches ops of them; each dispatch updates its flow's state and
// schedules one new event carrying a newly allocated packet.
func heapLoop(pending, nflows, ops int) uint64 {
	h := make([]refEvent, 0, pending)
	flows := make(map[uint32]*[4]uint64, nflows)
	x := uint64(2463534242)
	rnd := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	push := func(e refEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].at <= h[i].at {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() refEvent {
		e := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			m := 2*i + 1
			if m >= len(h) {
				break
			}
			if r := m + 1; r < len(h) && h[r].at < h[m].at {
				m = r
			}
			if h[i].at <= h[m].at {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return e
	}
	newPacket := func() *refPacket {
		return &refPacket{flow: uint32(rnd() % uint64(nflows)), size: 64 + int(rnd()%1436)}
	}
	for i := 0; i < pending; i++ {
		push(refEvent{rnd() % 1e6, newPacket()})
	}
	var now uint64
	for i := 0; i < ops; i++ {
		e := pop()
		now = e.at
		f := flows[e.p.flow]
		if f == nil {
			f = new([4]uint64)
			flows[e.p.flow] = f
		}
		f[0]++
		f[1] += uint64(e.p.size)
		f[2] = now
		push(refEvent{now + 1 + rnd()%1e5, newPacket()})
	}
	return now
}

// scaled times samples between reference kernels: kernel, sample,
// kernel, sample, …, kernel. It keeps each sample both in host seconds
// and in reference-host seconds.
type scaled struct {
	refs, raw, norm []float64
}

func newScaled() *scaled {
	return &scaled{refs: []float64{refKernel()}}
}

// add records one sample's host time, closes it with a kernel and
// returns the sample in reference-host seconds.
func (s *scaled) add(host float64) float64 {
	before, after := s.refs[len(s.refs)-1], refKernel()
	n := host / ((before + after) / 2) * refNominal
	s.refs = append(s.refs, after)
	s.raw = append(s.raw, host)
	s.norm = append(s.norm, n)
	return n
}
