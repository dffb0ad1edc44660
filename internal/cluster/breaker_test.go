package cluster

import (
	"testing"
	"time"
)

// fakeClock drives a breaker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(threshold, cooldown)
	b.now = clk.now
	return b, clk
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused request %d", i)
		}
		b.Failure()
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2/3 failures = %v", b.State())
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after threshold failures = %v, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker allowed a request inside the cooldown")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatal("threshold-1 breaker did not open")
	}
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", b.State())
	}
	// Only one probe at a time.
	if b.Allow() {
		t.Fatal("second concurrent probe allowed")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused")
	}
}

func TestBreakerProbeFailureReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after probe failure = %v, want open", b.State())
	}
	// The cooldown restarted at the probe failure.
	clk.advance(time.Second / 2)
	if b.Allow() {
		t.Fatal("reopened breaker allowed a request before the new cooldown elapsed")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("reopened breaker refused after the new cooldown")
	}
}

func TestBreakerSuccessResetsFailureStreak(t *testing.T) {
	b, _ := newTestBreaker(3, time.Second)
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if b.State() != BreakerClosed {
		t.Fatalf("non-consecutive failures opened the breaker: %v", b.State())
	}
}

func TestBreakerReleaseIsNeutral(t *testing.T) {
	b, clk := newTestBreaker(2, time.Second)
	b.Failure()
	b.Release()
	if b.State() != BreakerClosed {
		t.Fatalf("state after a failure and a release = %v, want closed", b.State())
	}
	// The release did not reset the count: one more failure opens it.
	b.Failure()
	if b.State() != BreakerOpen {
		t.Fatalf("state after 2/2 failures around a release = %v, want open", b.State())
	}
	clk.advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	// A released probe leaves the breaker half-open and frees the slot.
	b.Release()
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after a released probe = %v, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("released probe slot was not handed back")
	}
}
