package report

import (
	"fmt"
	"strings"

	"iotsentinel/internal/core"
	"iotsentinel/internal/eval"
	"iotsentinel/internal/fingerprint"
)

// AblationPoint is one configuration of an ablation sweep.
type AblationPoint struct {
	// Label names the configuration (e.g. "trees=25").
	Label string
	// Global is the cross-validated global accuracy.
	Global float64
	// MultiMatchRate is the fraction of identifications needing
	// discrimination.
	MultiMatchRate float64
}

// AblationResult is one ablation sweep.
type AblationResult struct {
	Name   string
	Points []AblationPoint
}

// Render formats the sweep.
func (r *AblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation — %s\n\n", r.Name)
	fmt.Fprintf(&b, "%-24s %8s %12s\n", "configuration", "global", "multi-match")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-24s %8.3f %11.0f%%\n", p.Label, p.Global, p.MultiMatchRate*100)
	}
	return b.String()
}

// runCV is the shared ablation harness: cross-validate the dataset with
// the given identifier config.
func runCV(ds map[core.TypeID][]fingerprint.Fingerprint, o Options, idCfg core.Config) (AblationPoint, error) {
	cv, err := eval.CrossValidate(ds, eval.CVConfig{
		Folds:      o.Folds,
		Repeats:    o.Repeats,
		Seed:       o.Seed + 5,
		Identifier: idCfg,
	})
	if err != nil {
		return AblationPoint{}, err
	}
	return AblationPoint{
		Global:         cv.Confusion.Global(),
		MultiMatchRate: cv.MultiMatchRate,
	}, nil
}

// AblateForestSize sweeps the per-type Random Forest tree count.
func AblateForestSize(o Options) (*AblationResult, error) {
	o = o.normalize()
	ds := dataset(o)
	res := &AblationResult{Name: "random-forest size (trees per classifier)"}
	for _, trees := range []int{5, 10, 25, 50} {
		cfg := o.Identifier
		cfg.Forest.Trees = trees
		p, err := runCV(ds, o, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablate trees=%d: %w", trees, err)
		}
		p.Label = fmt.Sprintf("trees=%d", trees)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblateNegativeRatio sweeps the negative-subsample ratio (paper: 10).
func AblateNegativeRatio(o Options) (*AblationResult, error) {
	o = o.normalize()
	ds := dataset(o)
	res := &AblationResult{Name: "negative subsample ratio (paper: 10x)"}
	for _, ratio := range []int{1, 5, 10, 20} {
		cfg := o.Identifier
		cfg.NegativeRatio = ratio
		p, err := runCV(ds, o, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablate negratio=%d: %w", ratio, err)
		}
		p.Label = fmt.Sprintf("negatives=%dx", ratio)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblateReferenceCount sweeps the discrimination reference-fingerprint
// count (paper: 5).
func AblateReferenceCount(o Options) (*AblationResult, error) {
	o = o.normalize()
	ds := dataset(o)
	res := &AblationResult{Name: "edit-distance reference fingerprints (paper: 5)"}
	for _, refs := range []int{1, 3, 5, 10} {
		cfg := o.Identifier
		cfg.RefFingerprints = refs
		p, err := runCV(ds, o, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablate refs=%d: %w", refs, err)
		}
		p.Label = fmt.Sprintf("references=%d", refs)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblateDiscrimination compares the full pipeline against
// classification-only (multi-matches resolved by first accepted type).
func AblateDiscrimination(o Options) (*AblationResult, error) {
	o = o.normalize()
	ds := dataset(o)
	res := &AblationResult{Name: "discrimination stage on/off"}
	for _, disable := range []bool{false, true} {
		cfg := o.Identifier
		cfg.DisableDiscrimination = disable
		p, err := runCV(ds, o, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablate discrimination=%v: %w", !disable, err)
		}
		p.Label = "discrimination=on"
		if disable {
			p.Label = "discrimination=off"
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// AblateFingerprintLength sweeps the number of unique packets in F′
// (paper: 12). Shorter lengths are emulated by zeroing the tail slots,
// which is equivalent for tree induction: constant features are never
// selected as splits.
func AblateFingerprintLength(o Options) (*AblationResult, error) {
	o = o.normalize()
	full := dataset(o)
	res := &AblationResult{Name: "F' length in unique packets (paper: 12)"}
	for _, n := range []int{2, 4, 8, 12} {
		ds := truncateDataset(full, n)
		p, err := runCV(ds, o, o.Identifier)
		if err != nil {
			return nil, fmt.Errorf("ablate fplen=%d: %w", n, err)
		}
		p.Label = fmt.Sprintf("packets=%d", n)
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// truncateDataset zeroes every F′ slot beyond the first n packets.
func truncateDataset(ds map[core.TypeID][]fingerprint.Fingerprint, n int) map[core.TypeID][]fingerprint.Fingerprint {
	out := make(map[core.TypeID][]fingerprint.Fingerprint, len(ds))
	for t, fps := range ds {
		cp := make([]fingerprint.Fingerprint, len(fps))
		copy(cp, fps)
		for i := range cp {
			clear(cp[i].FPrime[min(n, fingerprint.UniquePackets):])
			if cp[i].UniqueCount > n {
				cp[i].UniqueCount = n
			}
		}
		out[t] = cp
	}
	return out
}

// AblateAcceptThreshold sweeps the classifier acceptance threshold,
// showing the accuracy / multi-match trade the identifier's soft-voting
// acceptance exposes.
func AblateAcceptThreshold(o Options) (*AblationResult, error) {
	o = o.normalize()
	ds := dataset(o)
	res := &AblationResult{Name: "classifier acceptance threshold (default: 0.5)"}
	for _, thr := range []float64{0.3, 0.4, 0.5, 0.6, 0.7} {
		cfg := o.Identifier
		cfg.AcceptThreshold = thr
		p, err := runCV(ds, o, cfg)
		if err != nil {
			return nil, fmt.Errorf("ablate threshold=%.1f: %w", thr, err)
		}
		p.Label = fmt.Sprintf("threshold=%.1f", thr)
		res.Points = append(res.Points, p)
	}
	return res, nil
}
