package fleet

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, read off its stack header
// ("goroutine 18 [running]:").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestOpRunsOnItsWaiter: a host starts no goroutine, and an op runs on the
// goroutine that waits for it — which is the one that submits it, since
// Submit returns only once its op has run.
func TestOpRunsOnItsWaiter(t *testing.T) {
	c := testCluster(t, 1, FirstFit{})
	h := c.Hosts()[0]
	all := make([]byte, 1<<20)
	if stacks := string(all[:runtime.Stack(all, true)]); strings.Contains(stacks, "fleet.(*Host)") {
		t.Fatalf("a goroutine runs host code after boot:\n%s", stacks)
	}

	type result struct{ ranOn, submitter string }
	got := make(chan result)
	go func() {
		var ranOn string
		if _, err := h.Submit(func() error {
			ranOn = goid()
			return nil
		}); err != nil {
			t.Error(err)
		}
		got <- result{ranOn, goid()}
	}()
	if r := <-got; r.ranOn != r.submitter || r.ranOn == goid() {
		t.Fatalf("op ran on goroutine %q; submitter %s, test %s", r.ranOn, r.submitter, goid())
	}
}

// TestWaitRunsEarlierOpsFirst: ops run in call order, each before its Submit
// returns, so by the time an op's Wait returns every op submitted before it
// has run and none after it has. Wait returns the op's own error, whatever
// its ctx.
func TestWaitRunsEarlierOpsFirst(t *testing.T) {
	c := testCluster(t, 1, FirstFit{})
	h := c.Hosts()[0]
	me := goid()
	errC := errors.New("op C failed")
	var order []string
	submit := func(label string, err error) *Op {
		op, subErr := h.Submit(func() error {
			order = append(order, label+"@"+goid())
			return err
		})
		if subErr != nil {
			t.Fatal(subErr)
		}
		if n := len(order); n == 0 || order[n-1] != label+"@"+me {
			t.Fatalf("Submit(%s) on goroutine %s returned having run %v", label, me, order)
		}
		return op
	}
	submit("A", nil)
	submit("B", nil)
	opC := submit("C", errC)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := opC.Wait(ctx); !errors.Is(err, errC) {
		t.Fatalf("Wait(C) under a canceled ctx: %v, want C's own error", err)
	}
	if want := []string{"A@" + me, "B@" + me, "C@" + me}; !reflect.DeepEqual(order, want) {
		t.Fatalf("Wait(C) returned having run %v, want %v", order, want)
	}
	submit("D", nil)
	if want := []string{"A@" + me, "B@" + me, "C@" + me, "D@" + me}; !reflect.DeepEqual(order, want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
}

// TestSubmitRunsOneOpAtATime: ops submitted to one host from two goroutines
// never overlap, and Close waits for a running op, after which Submit is
// refused. Wired into `make race-quick`.
func TestSubmitRunsOneOpAtATime(t *testing.T) {
	c := testCluster(t, 1, FirstFit{})
	h := c.Hosts()[0]

	// Two submitters, one host: never two ops at once. ran is a plain
	// counter, so under -race an overlap is also a reported race.
	var inFlight atomic.Int32
	ran := 0
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, err := h.Submit(func() error {
					if n := inFlight.Add(1); n != 1 {
						t.Errorf("%d ops in flight on one host", n)
					}
					runtime.Gosched()
					ran++
					inFlight.Add(-1)
					return nil
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if ran != 400 {
		t.Fatalf("%d ops ran, want 400", ran)
	}

	// Close waits for the running op; a later Submit is refused.
	started, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	go func() {
		_, _ = h.Submit(func() error {
			close(started)
			<-release
			finished.Store(true)
			return nil
		})
	}()
	<-started
	closed := make(chan bool)
	go func() {
		h.Close()
		closed <- finished.Load()
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while an op was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if !<-closed {
		t.Fatal("Close returned before the running op finished")
	}
	if _, err := h.Submit(func() error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit on a closed host: %v, want ErrClosed", err)
	}
}
