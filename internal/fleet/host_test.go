package fleet

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// goid returns the calling goroutine's id, read off its stack header
// ("goroutine 18 [running]:").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// TestOpRunsOnItsWaiter: a host starts no goroutine, and a queued op runs on
// the goroutine that waits for it — not on the one that submitted it.
// Wired into `make race-quick`.
func TestOpRunsOnItsWaiter(t *testing.T) {
	c := testCluster(t, 1, FirstFit{})
	h := c.Hosts()[0]
	all := make([]byte, 1<<20)
	if stacks := string(all[:runtime.Stack(all, true)]); strings.Contains(stacks, "fleet.(*Host)") {
		t.Fatalf("a goroutine runs host code after boot:\n%s", stacks)
	}

	var ranOn string
	op, err := h.Submit(func() error {
		ranOn = goid()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waiter := make(chan string)
	go func() {
		if err := op.Wait(context.Background()); err != nil {
			t.Error(err)
		}
		waiter <- goid()
	}()
	if w := <-waiter; ranOn != w || ranOn == goid() {
		t.Fatalf("op ran on goroutine %s; waiter %s, submitter %s", ranOn, w, goid())
	}
}

// TestWaitRunsEarlierOpsFirst: waiting for an op runs every op submitted
// before it, in submission order, and nothing after.
func TestWaitRunsEarlierOpsFirst(t *testing.T) {
	c := testCluster(t, 1, FirstFit{})
	h := c.Hosts()[0]
	var order []string
	submit := func(label string) *Op {
		op, err := h.Submit(func() error {
			order = append(order, label)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	submit("A")
	submit("B")
	opC := submit("C")
	submit("D")
	if err := opC.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"A", "B", "C"}) {
		t.Fatalf("Wait(C) ran %v, want [A B C]", order)
	}
	if err := h.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(order, []string{"A", "B", "C", "D"}) {
		t.Fatalf("Quiesce left the order at %v", order)
	}
}

// TestCancelledWaitLeavesOpQueued: a Wait whose context is canceled — before
// it starts, or while it sleeps behind another goroutine's op — returns the
// cancellation without running its op; the next Quiesce runs it, and Close
// runs whatever is still queued before it shuts the host down.
func TestCancelledWaitLeavesOpQueued(t *testing.T) {
	c := testCluster(t, 1, FirstFit{})
	h := c.Hosts()[0]
	ran := map[string]bool{}
	var mu sync.Mutex
	submit := func(label string, body func()) *Op {
		op, err := h.Submit(func() error {
			if body != nil {
				body()
			}
			mu.Lock()
			ran[label] = true
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return op
	}
	hasRun := func(label string) bool {
		mu.Lock()
		defer mu.Unlock()
		return ran[label]
	}

	// Canceled before the wait starts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	op := submit("early", nil)
	if err := op.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait under a canceled context: %v, want context.Canceled", err)
	}
	if hasRun("early") {
		t.Fatal("a canceled Wait ran its op")
	}
	if err := h.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !hasRun("early") || op.Err() != nil {
		t.Fatalf("Quiesce did not run the abandoned op (ran %v, err %v)", hasRun("early"), op.Err())
	}

	// Canceled while asleep: another goroutine's op is running.
	started, release := make(chan struct{}), make(chan struct{})
	blocker := submit("blocker", func() {
		close(started)
		<-release
	})
	blocked := make(chan error)
	go func() { blocked <- blocker.Wait(context.Background()) }()
	<-started
	ctx, cancel = context.WithCancel(context.Background())
	op = submit("asleep", nil)
	time.AfterFunc(10*time.Millisecond, cancel)
	if err := op.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait canceled in its sleep: %v, want context.Canceled", err)
	}
	if hasRun("asleep") {
		t.Fatal("a canceled Wait ran its op")
	}
	close(release)
	if err := <-blocked; err != nil {
		t.Fatal(err)
	}
	if err := h.Quiesce(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !hasRun("asleep") {
		t.Fatal("Quiesce did not run the op whose Wait was canceled")
	}

	// Close drains.
	submit("late", nil)
	h.Close()
	if !hasRun("late") {
		t.Fatal("Close shut the host down with an op still queued")
	}
}
