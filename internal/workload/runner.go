package workload

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/memctrl"
)

// Runner issues guest-RAM accesses for one VM through the measurement
// path behind Figures 4-7: translate through the VM's EPTs (with its TLB),
// filter through an optional last-level cache model, and issue to the
// memory-controller model. The only difference between Siloz and the
// baseline is where the hypervisor placed the VM's pages.
//
// Think-time accounting is exact at request granularity: cache hits
// contribute their hit latency as think time preceding the next DRAM
// access of the *same* request, and FinishRequest settles any trailing
// hit latency into the controller's clock before reporting the request's
// completion time — so a request that ends on cache hits is never charged
// to the next request, and its own latency includes every hit it made.
// The request-serving loop (internal/serve) is built on these boundaries;
// RunOnVM runs a whole workload stream as one request.
type Runner struct {
	vm     *core.VM
	ctrl   *memctrl.Controller
	cache  *memctrl.Cache
	region uint64

	// The controller's decode, for the stripe cursor: its mapper, the bytes
	// of memory that mapper decodes, and the geometry's banks per socket.
	mapper      addr.Mapper
	paEnd       uint64
	socketBanks int

	// pendingThink is accumulated think + cache-hit latency awaiting the
	// next DRAM access (or FinishRequest, whichever comes first).
	pendingThink float64
	// lastDone is the completion frontier of the current request's DRAM
	// accesses.
	lastDone float64
}

// NewRunner builds a runner. cache may be nil to drive raw DRAM traffic
// (e.g. Intel MLC, which defeats caching by design).
func NewRunner(vm *core.VM, ctrl *memctrl.Controller, cache *memctrl.Cache) *Runner {
	mapper := ctrl.Mapper()
	g := mapper.Geometry()
	return &Runner{
		vm: vm, ctrl: ctrl, cache: cache, region: vm.Spec().MemoryBytes,
		mapper: mapper, paEnd: uint64(g.TotalBytes()), socketBanks: g.BanksPerSocket(),
	}
}

// Issue translates and issues one access: a one-line run, which is always a
// single segment.
func (r *Runner) Issue(a Access) error {
	_, err := r.issueSegment(Run{Offset: a.Offset, Lines: 1, Write: a.Write, ThinkNs: a.ThinkNs})
	return err
}

// IssueRun translates and issues a run's lines in address order. Cache hits
// accumulate into the pending think time; misses reach DRAM carrying
// everything accumulated since the last miss — line for line what issuing
// each line as its own Access does, in the same order of cache lookups,
// controller commands and floating-point additions. The run is served a
// segment at a time.
func (r *Runner) IssueRun(run Run) error {
	for run.Lines > 0 {
		n, err := r.issueSegment(run)
		if err != nil {
			return err
		}
		run.Offset += uint64(n) * line
		run.Lines -= n
		run.ThinkNs = 0
	}
	return nil
}

// issueSegment issues the head of a run as one segment and returns how many
// lines that was: up to 64 inside one 2 MiB guest page, short of the region's
// end (where offsets wrap). A segment pays one translation — held for the
// rest of its page, as a TLB entry is held across a burst — one cache walk
// that returns its miss mask, and one stripe decode per stripe its missed
// lines touch.
//
// It is a function of its own so that nothing of a run's loop is live across
// the calls below. Issue calls it directly — a one-line run is one segment —
// and every access of a stream workload is that call: with the loop in the
// same body its state was spilled around each of them, a fifth of what a
// one-line run costs.
func (r *Runner) issueSegment(run Run) (int, error) {
	gpa := run.Offset
	if gpa >= r.region { // generators stay inside the region: the divide is the rare path
		gpa %= r.region
	}
	hpa, err := r.vm.Translate(gpa)
	if err != nil {
		return 0, fmt.Errorf("translating %#x: %w", run.Offset, err)
	}
	n := 1
	if run.Lines > 1 {
		n = r.segmentLines(gpa, hpa, run.Lines)
	}
	var missed uint64
	var hitNs float64
	if r.cache != nil {
		missed, hitNs = r.cache.AccessRun(hpa, n), r.cache.HitNs
	} else {
		missed = ^uint64(0) >> (uint(64-n) & 63) // every line reaches DRAM
	}
	// Line by line: pa is the line's address, missed's low bit says whether
	// it missed, and pending stays in a register across the hits; both exits
	// below store it back.
	var cur stripeCursor
	think, pending := run.ThinkNs, r.pendingThink
	for pa, left := hpa, n; left > 0; pa, left, missed = pa+line, left-1, missed>>1 {
		if missed&1 == 0 {
			pending += think + hitNs
			think = 0
			continue
		}
		var err error
		switch {
		case pa < cur.end:
			cur.stepTo(pa)
		case missed == 1:
			// The segment's last miss, outside any stripe entered: there
			// is nothing to step to, and the per-line decode costs less
			// than a stripe decode plus the bank split. A one-line run is
			// always this case.
			cur.bank, cur.row, cur.socket, err = r.mapper.DecodeBank(pa)
		default:
			var st addr.Stripe
			if st, err = r.mapper.Stripe(pa); err == nil {
				cur.enter(st, pa, r.socketBanks)
			}
		}
		if err != nil {
			r.pendingThink = pending
			return 0, fmt.Errorf("access %#x: %w", pa, err)
		}
		done, _ := r.ctrl.DoDecoded(cur.bank, cur.row, cur.socket, run.Write, think+pending)
		think, pending = 0, 0
		if done > r.lastDone {
			r.lastDone = done
		}
	}
	r.pendingThink = pending
	return n, nil
}

// linesBelow counts the lines at from, from+64, ... that start below end.
func linesBelow(from, end uint64) int {
	return int((end - from + line - 1) / line)
}

// segmentLines returns how many of a run's next left lines, the first at
// guest address gpa and host address hpa, make one segment: at most the 64 a
// miss mask holds, none past gpa's 2 MiB page (the next page is translated on
// its own: a guest's pages need not be physically contiguous) or the region's
// end, and none past the end of the memory the controller's mapper decodes,
// so that inside a segment a stripe decode cannot fail: a line out there is
// a segment of its own and fails, if it misses the cache, on its own.
func (r *Runner) segmentLines(gpa, hpa uint64, left int) int {
	n := min(left, 64)
	end := min(gpa|(geometry.PageSize2M-1)+1, r.region)
	if to := linesBelow(gpa, end); to < n {
		n = to
	}
	if hpa >= r.paEnd {
		return 1
	}
	if to := linesBelow(hpa, r.paEnd); to < n {
		n = to
	}
	return n
}

// stripeCursor holds the controller coordinates of one line of a stripe and
// steps them to a later line of the same stripe without decoding again:
// consecutive lines of a stripe sit in consecutive banks of one socket, at
// one row, wrapping to the stripe's first bank after its last.
type stripeCursor struct {
	bank, row, socket int    // of the line at pa
	pa                uint64 // host address of the line the cursor is on
	end               uint64 // the stripe's end; 0 with no stripe entered
	first, banks      int    // the stripe's first flat bank and interleave width
}

// enter places the cursor on the line at pa, which st was decoded from.
// socketBanks is the geometry's banks per socket: what turns a within-socket
// bank index into the controller's flat one.
func (c *stripeCursor) enter(st addr.Stripe, pa uint64, socketBanks int) {
	c.first = st.Socket*socketBanks + st.Bank0
	c.banks = st.Banks
	// A stripe is Banks rows: its line count fits 32 bits with room to
	// spare, and a 32-bit divide is the cheap one.
	c.bank = c.first + int(uint32(uint64(st.Off)/line)%uint32(st.Banks))
	c.row, c.socket = st.Row, st.Socket
	c.pa = pa
	c.end = pa + uint64(st.Len-st.Off)
}

// stepTo moves the cursor forward to the line at pa, a whole number of lines
// further into the same stripe.
func (c *stripeCursor) stepTo(pa uint64) {
	k := int((pa - c.pa) / line)
	if k >= c.banks { // only a stripe narrower than the step pays a divide
		k %= c.banks
	}
	if c.bank += k; c.bank >= c.first+c.banks {
		c.bank -= c.banks
	}
	c.pa = pa
}

// FinishRequest closes the current request: trailing cache-hit latency is
// settled into the controller's clock (it belongs to this request, not
// the next), and the request's completion time — the later of its last
// DRAM completion and the core's clock — is returned.
func (r *Runner) FinishRequest() float64 {
	if r.pendingThink > 0 {
		r.ctrl.Idle(r.pendingThink)
		r.pendingThink = 0
	}
	done := r.ctrl.Now()
	if r.lastDone > done {
		done = r.lastDone
	}
	r.lastDone = 0
	return done
}

// RunOnVM executes a whole workload stream inside a VM as one request.
// On error the stream stops early, but the accesses already issued —
// including any trailing cache-hit think time — are settled into the
// controller, and the partial result is returned alongside the error
// (an earlier version dropped both, under-reporting the modeled time).
func RunOnVM(vm *core.VM, ctrl *memctrl.Controller, cache *memctrl.Cache, w Workload, ops int, seed int64) (memctrl.Result, error) {
	r := NewRunner(vm, ctrl, cache)
	var firstErr error
	w.Generate(r.region, ops, seed, func(a Access) bool {
		if err := r.Issue(a); err != nil {
			firstErr = fmt.Errorf("workload %s: %w", w.Name(), err)
			return false
		}
		return true
	})
	r.FinishRequest()
	return ctrl.Result(), firstErr
}
