package main

import (
	"bytes"
	"fmt"

	"barrierpoint/internal/trace"
	"barrierpoint/internal/tracefile"
	suite "barrierpoint/internal/workload"
)

// Seeded inputs. Every trace and request the benchmark sends is a pure
// function of (workload, --seed, position in the run), so two runs with
// one seed send byte-identical inputs and two seeds send different ones.
// bpserve only ever sees the generated bytes.

// heldOutSeed is never used while the benchmark or a change is tuned; a
// claimed gain is confirmed on it last (see README.md).
const heldOutSeed = 20140323

// threads is the thread count of every generated trace: one Table I
// socket, so the server sizes an 8-core machine.
const threads = 8

// rng is splitmix64: small, fast and identical on every platform.
type rng struct{ s uint64 }

// newRNG derives an independent stream for (seed, stream).
func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ (stream+1)*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a uniform permutation of [0, n).
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// input is one generated trace: a suite program at a scale, with its data
// addresses salted so its content — and every region's content digest —
// is new to the server. A non-zero Copy renames the trace instead: a new
// file (and trace key) whose regions, and so region digests and cached
// profiles, are those of copy 0.
type input struct {
	Program string
	Scale   float64
	Salt    uint64
	Copy    int
}

func (in input) String() string {
	s := fmt.Sprintf("%s@%g#%d", in.Program, in.Scale, in.Salt)
	if in.Copy > 0 {
		s += fmt.Sprintf("/copy%d", in.Copy)
	}
	return s
}

// saltShift places the salt above every address the suite generates
// (benchmarks sit 4 TiB apart below bit 46), so salting changes each
// address's tag bits only: cache set indexes, reuse distances, basic block
// vectors and therefore selections and simulated timings are those of the
// unsalted program, while the trace bytes differ.
const saltShift = 48

// saltFor returns the salt of the k-th distinct input of a run (k from 0).
// Salts of one run never repeat for k < 65535; the seed offsets them so
// runs with different seeds differ even where programs and scales agree.
func saltFor(seed int64, k int) uint64 {
	base := newRNG(seed, 0x5a17).next()
	return (base+uint64(k))%65535 + 1
}

// program builds the input's program.
func (in input) program() trace.Program {
	var p trace.Program = suite.New(in.Program, threads, suite.WithScale(in.Scale))
	if in.Salt != 0 {
		p = saltedProgram{Program: p, salt: in.Salt << saltShift}
	}
	if in.Copy > 0 {
		p = renamedProgram{Program: p, name: fmt.Sprintf("%s-copy%d", in.Program, in.Copy)}
	}
	return p
}

// record renders the input as a trace file in the default (streaming v2)
// format.
func (in input) record() ([]byte, error) {
	var buf bytes.Buffer
	if err := tracefile.Record(&buf, in.program()); err != nil {
		return nil, fmt.Errorf("recording %s: %w", in, err)
	}
	return buf.Bytes(), nil
}

type renamedProgram struct {
	trace.Program
	name string
}

func (p renamedProgram) Name() string { return p.name }

type saltedProgram struct {
	trace.Program
	salt uint64
}

func (p saltedProgram) Region(i int) trace.Region {
	return saltedRegion{r: p.Program.Region(i), salt: p.salt}
}

type saltedRegion struct {
	r    trace.Region
	salt uint64
}

func (r saltedRegion) Thread(tid int) trace.Stream {
	return &saltedStream{s: r.r.Thread(tid), salt: r.salt}
}

// saltedStream copies each block's accesses before salting them, since
// the wrapped stream may reuse its backing array.
type saltedStream struct {
	s    trace.Stream
	salt uint64
	accs []trace.Access
}

func (s *saltedStream) Next(be *trace.BlockExec) bool {
	if !s.s.Next(be) {
		return false
	}
	s.accs = append(s.accs[:0], be.Accs...)
	for i := range s.accs {
		s.accs[i].Addr ^= s.salt
	}
	be.Accs = s.accs
	return true
}
