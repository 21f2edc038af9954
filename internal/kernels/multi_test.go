package kernels

import (
	"testing"

	"repro/internal/device"
	"repro/internal/linalg"
	"repro/internal/variant"
)

func multiConfig() Config {
	return Config{Device: device.K20c(), Spec: FromVariant(variant.Options{Local: true, Register: true}),
		K: 10, Lambda: 0.1, Iterations: 2, Seed: 5}
}

// TestMultiMatchesSingle: sharding must not change the arithmetic.
func TestMultiMatchesSingle(t *testing.T) {
	mx := longRowMatrix(t)
	single, err := Train(mx, multiConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		devs := make([]*device.Device, n)
		for i := range devs {
			devs[i] = device.K20c()
		}
		multi, err := TrainMulti(mx, multiConfig(), devs)
		if err != nil {
			t.Fatalf("%d devices: %v", n, err)
		}
		if d := linalg.MaxAbsDiff(single.X, multi.X); d != 0 {
			t.Fatalf("%d devices: X differs by %g", n, d)
		}
		if d := linalg.MaxAbsDiff(single.Y, multi.Y); d != 0 {
			t.Fatalf("%d devices: Y differs by %g", n, d)
		}
		// The cost pass alone reports the clock of the sharded run.
		est, err := EstimateMulti(mx, multiConfig(), devs)
		if err != nil {
			t.Fatalf("%d devices: %v", n, err)
		}
		if est.ComputeSeconds != multi.ComputeSeconds || est.TransferSeconds != multi.TransferSeconds {
			t.Fatalf("%d devices: EstimateMulti %+v != TrainMulti's clock (%g, %g)",
				n, est, multi.ComputeSeconds, multi.TransferSeconds)
		}
	}
}

// TestMultiComputeScales: with rows sharded, the compute makespan must
// shrink close to linearly while transfers grow with the device count.
func TestMultiComputeScales(t *testing.T) {
	mx := longRowMatrix(t)
	one, err := EstimateMulti(mx, multiConfig(), []*device.Device{device.K20c()})
	if err != nil {
		t.Fatal(err)
	}
	four, err := EstimateMulti(mx, multiConfig(), []*device.Device{
		device.K20c(), device.K20c(), device.K20c(), device.K20c()})
	if err != nil {
		t.Fatal(err)
	}
	speedup := one.ComputeSeconds / four.ComputeSeconds
	if speedup < 2.4 || speedup > 4.5 {
		t.Fatalf("4-device compute speedup = %.2fx, want roughly linear [2.4, 4.5]", speedup)
	}
	if !(four.TransferSeconds > one.TransferSeconds) {
		t.Fatalf("transfers did not grow with devices: %g vs %g", four.TransferSeconds, one.TransferSeconds)
	}
}

// TestMultiErrors: input validation.
func TestMultiErrors(t *testing.T) {
	mx := testMatrix(t)
	if _, err := TrainMulti(mx, multiConfig(), nil); err == nil {
		t.Fatal("accepted empty device list")
	}
}

// TestMultiMoreDevicesThanRows: degenerate sharding must still work.
func TestMultiMoreDevicesThanRows(t *testing.T) {
	mx := testMatrix(t)
	devs := make([]*device.Device, 64)
	for i := range devs {
		devs[i] = device.K20c()
	}
	res, err := TrainMulti(mx, multiConfig(), devs)
	if err != nil {
		t.Fatal(err)
	}
	single, err := Train(mx, multiConfig())
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(single.X, res.X); d != 0 {
		t.Fatalf("64-device X differs by %g", d)
	}
}
