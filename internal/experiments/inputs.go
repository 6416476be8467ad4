package experiments

import (
	"fmt"

	"trident/internal/core"
	"trident/internal/fault"
	"trident/internal/profile"
	"trident/internal/progs"
)

// InputPoint is one (program, input variant) measurement.
type InputPoint struct {
	Variant int
	// FI and Trident are the measured and predicted SDC probabilities for
	// this input.
	FI, Trident float64
}

// InputRow is one benchmark's input sensitivity.
type InputRow struct {
	Name   string
	Points []InputPoint
	// SpreadFI and SpreadModel are max-min across variants: how much the
	// SDC probability moves with the input (Di Leo et al.'s observation,
	// the paper's §IX future work).
	SpreadFI, SpreadModel float64
	// Tracks reports whether the model profiled on variant 0 ranks the
	// variants in the same order as FI does (coarse transferability).
	Tracks bool
}

// InputSensitivity measures, for each configured benchmark, the overall
// SDC probability under several synthetic input variants — by FI and by
// the model re-profiled per input. The paper leaves multi-input modeling
// to future work; this experiment quantifies how much the single-input
// assumption costs on this suite.
func InputSensitivity(cfg Config, variants int) ([]InputRow, error) {
	cfg = cfg.withDefaults()
	if variants <= 0 {
		variants = 3
	}
	rows := make([]InputRow, 0, len(cfg.Programs))
	for _, name := range cfg.Programs {
		prog, err := progs.ByName(name)
		if err != nil {
			return nil, err
		}
		if prog.BuildInput == nil {
			continue
		}
		row := InputRow{Name: name}
		var fiMin, fiMax, mMin, mMax float64
		for v := 0; v < variants; v++ {
			m := prog.BuildInput(v)
			inj, err := fault.New(m, cfg.faultOptions(cfg.Seed+uint64(v)))
			if err != nil {
				return nil, fmt.Errorf("%s variant %d: %w", name, v, err)
			}
			campaign, err := cfg.campaignRandom(inj,
				fmt.Sprintf("inputs-%s-v%d", name, v), cfg.Samples)
			if err != nil {
				return nil, err
			}
			prof, err := profile.Collect(m, profile.Options{Seed: cfg.Seed})
			if err != nil {
				return nil, err
			}
			model := core.New(prof, core.TridentConfig())
			pt := InputPoint{
				Variant: v,
				FI:      campaign.SDCProb(),
				Trident: model.OverallSDC(0, cfg.Seed).SDC,
			}
			row.Points = append(row.Points, pt)
			if v == 0 {
				fiMin, fiMax, mMin, mMax = pt.FI, pt.FI, pt.Trident, pt.Trident
			} else {
				fiMin, fiMax = min(fiMin, pt.FI), max(fiMax, pt.FI)
				mMin, mMax = min(mMin, pt.Trident), max(mMax, pt.Trident)
			}
		}
		row.SpreadFI = fiMax - fiMin
		row.SpreadModel = mMax - mMin
		row.Tracks = sameOrder(row.Points)
		rows = append(rows, row)
	}
	return rows, nil
}

// sameOrder reports whether FI and the model rank the variants identically.
func sameOrder(points []InputPoint) bool {
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			fiLess := points[i].FI < points[j].FI
			mLess := points[i].Trident < points[j].Trident
			if fiLess != mLess {
				return false
			}
		}
	}
	return true
}
