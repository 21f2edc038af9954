// Package experiments reproduces every table and figure of the paper's
// evaluation (Sec. IV–V): Table I and Figures 1, 6, 7, 8, 9 and 10. Each
// runner returns a structured Table whose rows mirror what the paper plots,
// so `alsbench` can print them and EXPERIMENTS.md can record paper-vs-
// measured shapes.
//
// Experiments run on the synthetic Table I presets at a configurable scale
// (default: full YahooMusic R4; the three large datasets scaled down to
// laptop-sized row counts with density and skew preserved — see
// internal/dataset). Simulated execution times come from the device models
// in internal/device; the paper's absolute seconds are not reproducible
// without the physical hardware, but every comparison the paper makes is.
package experiments

import (
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/device"
	"repro/internal/kernels"
	"repro/internal/variant"
)

// Settings configures a reproduction run.
type Settings struct {
	// Scale multiplies the per-dataset default scales below; 1 keeps them.
	Scale float64
	// K, Lambda, Iterations follow the paper: k=10, λ=0.1, 5 iterations.
	K          int
	Lambda     float32
	Iterations int
	Seed       int64
	// Groups/GroupSize: the paper's 8192×32 launch grid.
	Groups    int
	GroupSize int
}

// Defaults returns the paper's experimental configuration.
func Defaults() Settings {
	return Settings{
		Scale: 1, K: 10, Lambda: 0.1, Iterations: 5, Seed: 2017,
		Groups: 8192, GroupSize: 32,
	}
}

// presetScales shrinks the three large datasets to tractable sizes while
// keeping YahooMusic R4 (already small) at full size. Scales preserve
// density and degree skew (dataset.Preset.Scaled).
var presetScales = map[string]float64{
	"MVLE": 0.02,
	"NTFX": 0.005,
	"YMR1": 0.004,
	"YMR4": 1.0,
}

var (
	dsCacheMu sync.Mutex
	dsCache   = map[string]*dataset.Dataset{}
)

// Datasets generates (and caches) the four evaluation datasets at the
// settings' scale, in the paper's figure order.
func Datasets(s Settings) []*dataset.Dataset {
	out := make([]*dataset.Dataset, 0, len(dataset.Presets))
	for _, p := range dataset.Presets {
		f := presetScales[p.Name] * s.Scale
		if f > 1 {
			f = 1
		}
		key := fmt.Sprintf("%s/%g/%d", p.Name, f, s.Seed)
		dsCacheMu.Lock()
		ds, ok := dsCache[key]
		dsCacheMu.Unlock()
		if !ok {
			scaled := p
			if f < 1 {
				scaled = p.ScaledForBench(f)
			}
			ds = scaled.Generate(s.Seed)
			ds.Name = p.Name // keep the paper abbreviation after scaling
			dsCacheMu.Lock()
			dsCache[key] = ds
			dsCacheMu.Unlock()
		}
		out = append(out, ds)
	}
	return out
}

// BestVariant returns the paper's per-architecture recommended variant
// (Fig. 10 caption): thread batching + local memory + registers on the GPU,
// thread batching + local memory on CPU and MIC.
func BestVariant(kind device.Kind) variant.Options {
	if kind == device.GPU {
		return variant.Options{Local: true, Register: true}
	}
	return variant.Options{Local: true}
}

// kernelConfig assembles a simulated-run config.
func kernelConfig(dev *device.Device, spec kernels.Spec, s Settings) kernels.Config {
	return kernels.Config{
		Device: dev, Spec: spec,
		K: s.K, Iterations: s.Iterations,
		Groups: s.Groups, GroupSize: s.GroupSize,
	}
}

// runSeconds returns the simulated device's end-to-end seconds for the run
// (the cost pass: the figures read the clock, not the factors).
func runSeconds(ds *dataset.Dataset, dev *device.Device, spec kernels.Spec, s Settings) (float64, error) {
	res, err := kernels.Estimate(ds.Matrix, kernelConfig(dev, spec, s))
	if err != nil {
		return 0, fmt.Errorf("%s on %s (%s): %w", ds.Name, dev.Kind, spec.Name(), err)
	}
	return res.Seconds(), nil
}
