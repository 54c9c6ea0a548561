package vclock

import (
	"testing"
	"time"
)

func TestNowStartsAtEpoch(t *testing.T) {
	c := New()
	if !c.Now().Equal(Epoch) {
		t.Fatalf("Now = %v, want %v", c.Now(), Epoch)
	}
}

func TestAdvanceMovesTime(t *testing.T) {
	c := New()
	c.Advance(90 * time.Minute)
	if got := c.Since(Epoch); got != 90*time.Minute {
		t.Fatalf("elapsed = %v", got)
	}
}

func TestAdvanceToPastIsNoop(t *testing.T) {
	c := New()
	c.Advance(time.Hour)
	before := c.Now()
	c.AdvanceTo(Epoch) // earlier than now
	if !c.Now().Equal(before) {
		t.Fatalf("clock moved backwards to %v", c.Now())
	}
}
