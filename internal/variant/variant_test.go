package variant

import (
	"testing"
	"testing/quick"
)

func TestAllEnumeratesEightVariants(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("All() returned %d variants, paper defines 8", len(all))
	}
	seen := map[string]bool{}
	for _, v := range all {
		if seen[v.ID()] {
			t.Fatalf("duplicate variant %s", v.ID())
		}
		seen[v.ID()] = true
	}
	if !seen["tb"] || !seen["tb+reg+loc+vec"] {
		t.Fatal("missing bare or fully-combined variant")
	}
}

func TestExtendedAddsFusedFamily(t *testing.T) {
	ext := Extended()
	if len(ext) != 12 {
		t.Fatalf("Extended() returned %d variants, want 12 (8 paper + 4 fused)", len(ext))
	}
	seen := map[string]bool{}
	fused := 0
	for _, v := range ext {
		if seen[v.ID()] {
			t.Fatalf("duplicate variant %s", v.ID())
		}
		seen[v.ID()] = true
		if v.Fused {
			fused++
			if v.Register {
				t.Fatalf("%s: fused variants must not set Register (subsumed)", v.ID())
			}
		}
	}
	if fused != 4 {
		t.Fatalf("Extended() has %d fused variants, want 4", fused)
	}
	if !seen["tb+fus"] || !seen["tb+loc+vec+fus"] {
		t.Fatal("missing bare-fused or fully-combined fused variant")
	}
}

func TestLadderMatchesFig6(t *testing.T) {
	l := Ladder()
	want := []string{"tb", "tb+loc", "tb+reg+loc", "tb+reg+loc+vec"}
	if len(l) != len(want) {
		t.Fatalf("ladder length %d, want %d", len(l), len(want))
	}
	for i, v := range l {
		if v.ID() != want[i] {
			t.Fatalf("ladder[%d] = %s, want %s", i, v.ID(), want[i])
		}
	}
}

func TestStringNames(t *testing.T) {
	if (Options{}).String() != "thread batching" {
		t.Fatalf("bare name = %q", (Options{}).String())
	}
	v := Options{Local: true, Register: true, Vector: true}
	if v.String() != "thread batching+local memory+register+vector" {
		t.Fatalf("full name = %q", v.String())
	}
	f := Options{Local: true, Fused: true}
	if f.String() != "thread batching+local memory+fused" {
		t.Fatalf("fused name = %q", f.String())
	}
}

func TestParseIDRoundTrip(t *testing.T) {
	f := func(reg, loc, vec, fus bool) bool {
		v := Options{Register: reg, Local: loc, Vector: vec, Fused: fus}
		got, err := ParseID(v.ID())
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseID("tb+warp"); err == nil {
		t.Fatal("ParseID accepted unknown token")
	}
	// Order-insensitive.
	v, err := ParseID("vec+tb+reg")
	if err != nil || !v.Vector || !v.Register || v.Local {
		t.Fatalf("ParseID out-of-order failed: %+v %v", v, err)
	}
}

func TestSelectBest(t *testing.T) {
	cands := All()
	// Cost model: local saves 5, vector saves 2, register costs 1.
	cost := func(o Options) float64 {
		c := 10.0
		if o.Local {
			c -= 5
		}
		if o.Vector {
			c -= 2
		}
		if o.Register {
			c += 1
		}
		return c
	}
	best, ms := SelectBest(cands, cost)
	if best != (Options{Local: true, Vector: true}) {
		t.Fatalf("SelectBest = %+v", best)
	}
	if len(ms) != 8 {
		t.Fatalf("measurements %d, want 8", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Seconds < ms[i-1].Seconds {
			t.Fatal("measurements not sorted fastest-first")
		}
	}
}
