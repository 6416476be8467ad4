package experiments

import (
	"trident/internal/baseline"
	"trident/internal/stats"
)

// Fig9Row is one benchmark's overall SDC under FI, TRIDENT, ePVF and PVF
// (Figure 9).
type Fig9Row struct {
	Name                   string
	FI, Trident, EPVF, PVF float64
}

// Fig9Result adds the §VII-C summary statistics (paper means: FI 13.59,
// TRIDENT 14.83, ePVF 52.55, PVF 90.62; MAEs 4.75 / 36.78 / 75.19).
type Fig9Result struct {
	Rows                                   []Fig9Row
	MeanFI, MeanTrident, MeanEPVF, MeanPVF float64
	MAETrident, MAEEPVF, MAEPVF            float64
}

// Fig9 regenerates Figure 9: the PVF/ePVF comparison. ePVF receives
// FI-measured crash rates as its crash model, as the paper's conservative
// reproduction does.
func Fig9(cfg Config) (*Fig9Result, error) {
	cfg = cfg.withDefaults()
	data, err := loadAll(cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	var fi, tri, ep, pv []float64
	for _, pd := range data {
		campaign, err := cfg.campaignRandom(pd.Injector, "fig9-"+pd.Program.Name, cfg.Samples)
		if err != nil {
			return nil, err
		}
		pvf := baseline.NewPVF(pd.Trident)
		epvf := baseline.NewEPVF(pd.Trident)
		oracle, err := measuredCrashOracle(cfg, pd, cfg.PerInstr/2)
		if err != nil {
			return nil, err
		}
		epvf.CrashOracle = oracle

		row := Fig9Row{
			Name:    pd.Program.Name,
			FI:      campaign.SDCProb(),
			Trident: pd.Trident.OverallSDC(cfg.Samples, cfg.Seed).SDC,
			EPVF:    epvf.OverallSDC(),
			PVF:     pvf.OverallSDC(),
		}
		res.Rows = append(res.Rows, row)
		fi = append(fi, row.FI)
		tri = append(tri, row.Trident)
		ep = append(ep, row.EPVF)
		pv = append(pv, row.PVF)
	}
	res.MeanFI = stats.Mean(fi)
	res.MeanTrident = stats.Mean(tri)
	res.MeanEPVF = stats.Mean(ep)
	res.MeanPVF = stats.Mean(pv)
	res.MAETrident, _ = stats.MeanAbsError(tri, fi)
	res.MAEEPVF, _ = stats.MeanAbsError(ep, fi)
	res.MAEPVF, _ = stats.MeanAbsError(pv, fi)
	return res, nil
}
