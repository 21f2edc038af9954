package kernels

import (
	"testing"

	"repro/internal/device"
	"repro/internal/sparse"
	"repro/internal/variant"
)

func multiConfig() Config {
	return Config{Device: device.K20c(), Spec: FromVariant(variant.Options{Local: true, Register: true}),
		K: 10, Iterations: 2}
}

// TestMultiMatchesSingle: one device holding every row is the single-device
// run — its compute clock is Estimate's kernel time, bit for bit.
func TestMultiMatchesSingle(t *testing.T) {
	mx := longRowMatrix(t)
	single, err := Estimate(mx, multiConfig())
	if err != nil {
		t.Fatal(err)
	}
	multi, err := EstimateMulti(mx, multiConfig(), []*device.Device{device.K20c()})
	if err != nil {
		t.Fatal(err)
	}
	if multi.ComputeSeconds != single.Report.Seconds {
		t.Fatalf("1-device compute %g s != single-device kernel time %g s", multi.ComputeSeconds, single.Report.Seconds)
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
	if _, err := EstimateMulti(mx, multiConfig(), nil); err == nil {
		t.Fatal("accepted empty device list")
	}
}

// TestMultiMoreDevicesThanRows: degenerate sharding must still work: the
// devices left without rows charge no compute, and the run's compute is
// no slower than one device's.
func TestMultiMoreDevicesThanRows(t *testing.T) {
	coo := sparse.NewCOO(5, 4)
	for u := 0; u < 5; u++ {
		coo.Append(u, u%4, 3)
		coo.Append(u, (u+1)%4, 4)
	}
	mx, err := sparse.NewMatrix(coo)
	if err != nil {
		t.Fatal(err)
	}
	devs := make([]*device.Device, 64)
	for i := range devs {
		devs[i] = device.K20c()
	}
	res, err := EstimateMulti(mx, multiConfig(), devs)
	if err != nil {
		t.Fatal(err)
	}
	one, err := EstimateMulti(mx, multiConfig(), devs[:1])
	if err != nil {
		t.Fatal(err)
	}
	if !(res.ComputeSeconds > 0 && res.ComputeSeconds <= one.ComputeSeconds) {
		t.Fatalf("64-device compute %g s, 1-device %g s", res.ComputeSeconds, one.ComputeSeconds)
	}
}
