package pcie

import (
	"testing"
	"time"

	"repro/internal/timing"
)

func TestTopology(t *testing.T) {
	tl := timing.NewTimeline()
	ic := NewInjected(tl, timing.Default(), 8, nil)
	if len(ic.links) != 8 || len(ic.uplinks) != 2 {
		t.Fatalf("devices=%d cards=%d", len(ic.links), len(ic.uplinks))
	}
	// Paper Figure 1: four devices per card behind one switch.
	for d := 0; d < 8; d++ {
		if ic.cardOf[d] != d/4 {
			t.Fatalf("device %d on card %d", d, ic.cardOf[d])
		}
	}
}

func TestTopologyPartialCard(t *testing.T) {
	tl := timing.NewTimeline()
	ic := NewInjected(tl, timing.Default(), 5, nil)
	if len(ic.uplinks) != 2 {
		t.Fatalf("5 devices need 2 cards, got %d", len(ic.uplinks))
	}
}

func TestTransferRateMatchesPaper(t *testing.T) {
	tl := timing.NewTimeline()
	ic := NewInjected(tl, timing.Default(), 1, nil)
	// Section 3.2: 1 MB ~ 6 ms.
	end := ic.TransferSpan(0, 1<<20, 0, timing.Span{})
	if end != 6*time.Millisecond {
		t.Fatalf("1MB transfer ends at %v", end)
	}
	// 8 MB ~ 48 ms, queued behind the first transfer.
	end = ic.TransferSpan(0, 8<<20, 0, timing.Span{})
	if end != 54*time.Millisecond {
		t.Fatalf("8MB queued transfer ends at %v", end)
	}
}

func TestTransfersOnDifferentDevicesOverlap(t *testing.T) {
	tl := timing.NewTimeline()
	ic := NewInjected(tl, timing.Default(), 4, nil)
	var ends []timing.Duration
	for d := 0; d < 4; d++ {
		ends = append(ends, ic.TransferSpan(d, 1<<20, 0, timing.Span{}))
	}
	for d, e := range ends {
		if e != 6*time.Millisecond {
			t.Fatalf("device %d transfer ends at %v; four x1 links should run concurrently", d, e)
		}
	}
}

func TestUplinkContention(t *testing.T) {
	tl := timing.NewTimeline()
	ic := NewInjected(tl, timing.Default(), 4, nil)
	// Saturate one device's link with many transfers; the shared
	// uplink carries 1/4 of each, so it stays ahead and the x1 link
	// remains the bottleneck.
	var end timing.Duration
	for i := 0; i < 8; i++ {
		end = ic.TransferSpan(0, 1<<20, 0, timing.Span{})
	}
	if end != 48*time.Millisecond {
		t.Fatalf("8 serialized 1MB transfers end at %v, want 48ms", end)
	}
}

func TestZeroBytesFree(t *testing.T) {
	tl := timing.NewTimeline()
	ic := NewInjected(tl, timing.Default(), 1, nil)
	if end := ic.TransferSpan(0, 0, 7, timing.Span{}); end != 7 {
		t.Fatalf("zero-byte transfer must be free, got %v", end)
	}
}

func TestTransferBadDevicePanics(t *testing.T) {
	tl := timing.NewTimeline()
	ic := NewInjected(tl, timing.Default(), 2, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ic.TransferSpan(5, 1, 0, timing.Span{})
}

func TestNewRequiresDevices(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewInjected(timing.NewTimeline(), timing.Default(), 0, nil)
}

func TestLinkBusyAccounting(t *testing.T) {
	tl := timing.NewTimeline()
	ic := NewInjected(tl, timing.Default(), 2, nil)
	ic.TransferSpan(1, 2<<20, 0, timing.Span{})
	if ic.LinkBusy(1) != 12*time.Millisecond {
		t.Fatalf("busy=%v", ic.LinkBusy(1))
	}
	if ic.LinkBusy(0) != 0 {
		t.Fatal("untouched link must be idle")
	}
}
