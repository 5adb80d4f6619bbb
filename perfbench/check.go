package main

import (
	"fmt"

	"xhybrid"
)

// checkPlan verifies a plan against the X map it was computed from, knowing
// nothing of how the plan was built:
//
//   - the partitions cover every pattern exactly once;
//   - every masked cell captures X under every pattern of its partition, so
//     no observable value is lost;
//   - the masked and residual X counts match the map;
//   - the Section 4 total chainLen·chains·partitions +
//     ceil(m·q·residualX/(m−q)) equals plan.TotalBits.
func checkPlan(x *xhybrid.XLocations, plan *xhybrid.Plan, m, q int) error {
	seen := make([]bool, x.Patterns())
	masked := 0
	for i, part := range plan.Partitions {
		for _, p := range part.Patterns {
			if p < 0 || p >= len(seen) || seen[p] {
				return fmt.Errorf("partition %d: pattern %d out of range or in two partitions", i, p)
			}
			seen[p] = true
		}
		for _, cell := range part.MaskedCells {
			if cell < 0 || cell >= x.Cells() {
				return fmt.Errorf("partition %d: masked cell %d out of range", i, cell)
			}
			chain, pos := cell/x.ChainLen(), cell%x.ChainLen()
			for _, p := range part.Patterns {
				if !x.HasX(p, chain, pos) {
					return fmt.Errorf("partition %d: masked cell %d is not X in pattern %d", i, cell, p)
				}
			}
		}
		masked += len(part.MaskedCells) * len(part.Patterns)
	}
	for p, ok := range seen {
		if !ok {
			return fmt.Errorf("pattern %d in no partition", p)
		}
	}
	residual := x.TotalX() - masked
	if plan.MaskedX != masked || plan.ResidualX != residual {
		return fmt.Errorf("plan masks %d X's leaving %d, map says %d leaving %d",
			plan.MaskedX, plan.ResidualX, masked, residual)
	}
	want := x.ChainLen() * x.Chains() * len(plan.Partitions)
	if residual > 0 {
		want += (m*q*residual + m - q - 1) / (m - q)
	}
	if plan.TotalBits != want {
		return fmt.Errorf("plan claims %d control bits, the Section 4 formula gives %d", plan.TotalBits, want)
	}
	return nil
}
