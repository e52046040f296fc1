package workload

import (
	"math/rand"
)

// KVRequests generates zipfian key-value requests one at a time, for the
// request-serving loop (internal/serve): where Workload.Generate emits one
// long access stream, Next returns exactly one request's accesses — an
// index lookup (two dependent lines) followed by the value's lines — so
// the caller can put a latency boundary around each request. The key
// popularity, read/write mix, and layout match the YCSB/memcached model.
type KVRequests struct {
	l        kvLayout
	rng      *rand.Rand
	z        *rand.Zipf
	readFrac float64
	thinkNs  float64
	runs     []Run
	buf      []Access
}

// NewKVRequests builds a request generator over a guest-RAM region.
// readFrac is the GET fraction (the rest are SETs); thinkNs is the
// request-handling compute preceding the first access.
func NewKVRequests(region, valueSize uint64, readFrac, thinkNs float64, seed int64) *KVRequests {
	k := &KVRequests{
		rng:      rand.New(rand.NewSource(seed)),
		readFrac: readFrac,
		thinkNs:  thinkNs,
	}
	k.reshape(region, valueSize)
	return k
}

// reshape (re)builds the layout and key distribution for a region size.
func (k *KVRequests) reshape(region, valueSize uint64) {
	k.l = newKVLayout(region, valueSize)
	k.z = zipfKey(k.rng, k.l.keys)
}

// Resize rebinds the generator to a new usable region size — after a
// balloon shrink the tenant's store shrinks with it (the hypervisor takes
// the highest-GPA pages, so [0, region) stays valid). The rng stream
// continues where it was: resized runs remain deterministic.
func (k *KVRequests) Resize(region uint64) {
	k.reshape(region, k.l.valueSize)
}

// Run is n consecutive cache lines of one guest, read or written together:
// line i is at byte offset Offset + 64*i of guest RAM. It is the unit the
// request path moves at — what one Access is to a single line.
type Run struct {
	// Offset is the byte offset into guest RAM of the first line.
	Offset uint64
	// Lines is the number of consecutive lines.
	Lines int
	// Write marks stores.
	Write bool
	// ThinkNs is compute time preceding the run's first line.
	ThinkNs float64
}

// access returns line i of the run as the Access that issues it alone: the
// run's think time precedes its first line only.
func (r Run) access(i int) Access {
	a := Access{Offset: r.Offset + uint64(i)*line, Write: r.Write}
	if i == 0 {
		a.ThinkNs = r.ThinkNs
	}
	return a
}

// NextRuns returns the next request as runs: two one-line index probes, the
// first carrying the request's think time, then the value's lines — one run,
// unless the value wraps at the end of a region too small to hold it, where
// it continues as another run from the wrapped offset. The returned slice is
// reused by the following NextRuns or Next call.
func (k *KVRequests) NextRuns() []Run {
	key := k.z.Uint64()
	write := k.rng.Float64() >= k.readFrac
	k.runs = k.runs[:0]
	think := k.thinkNs
	for _, off := range k.l.indexProbe(key) {
		k.runs = append(k.runs, Run{Offset: off, Lines: 1, ThinkNs: think})
		think = 0
	}
	base := k.l.valueBase(key)
	for left := int((k.l.valueSize + line - 1) / line); left > 0; {
		off := base % k.l.region
		n := min(left, linesBelow(off, k.l.region))
		k.runs = append(k.runs, Run{Offset: off, Lines: n, Write: write})
		base += uint64(n) * line
		left -= n
	}
	return k.runs
}

// Next returns the next request's accesses: NextRuns, a line at a time. The
// returned slice is reused by the following Next call.
func (k *KVRequests) Next() []Access {
	k.buf = k.buf[:0]
	for _, run := range k.NextRuns() {
		for i := 0; i < run.Lines; i++ {
			k.buf = append(k.buf, run.access(i))
		}
	}
	return k.buf
}
