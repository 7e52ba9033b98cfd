// Package metrics implements the procurement and configuration metrics of
// paper Section 5.2: simulation throughput (time steps solved per month),
// the response-time/throughput trade-off ratios R/X and R²/X for choosing
// partition sizes, and the optimal number of parallel simulations on a
// fixed platform (Figures 7–9).
package metrics

import (
	"fmt"
	"math"
)

// MicrosecondsPerMonth is the number of microseconds in a 30-day month.
const MicrosecondsPerMonth = 30 * 86400 * 1e6

// TimeStepsPerMonth converts a per-time-step execution time in µs into the
// number of time steps solved per month by one simulation.
func TimeStepsPerMonth(perStepMicros float64) float64 {
	if perStepMicros <= 0 {
		return math.Inf(1)
	}
	return MicrosecondsPerMonth / perStepMicros
}

// ErrorBand classifies an absolute relative model error into the accuracy
// bands the paper reports (Section 4: under 5% for LU, under 10% for the
// particle transport codes in high-performance configurations). Campaign
// summaries count runs per band to show where a model leaves its validated
// envelope.
func ErrorBand(absRelErr float64) string {
	e := math.Abs(absRelErr)
	switch {
	case e < 0.05:
		return "<5%"
	case e < 0.10:
		return "<10%"
	case e < 0.20:
		return "<20%"
	default:
		return ">=20%"
	}
}

// ErrorBandNames lists the ErrorBand labels in increasing-error order.
func ErrorBandNames() []string { return []string{"<5%", "<10%", "<20%", ">=20%"} }

// PartitionPoint is the throughput of one partitioning choice: Pavail
// processors split into Jobs equal partitions each running an independent
// simulation.
type PartitionPoint struct {
	Pavail    int
	Jobs      int
	Partition int     // processors per simulation
	R         float64 // execution time of one simulation (per unit of work), µs
	X         float64 // simulations completed per R: Jobs simulations finish every R
	StepsPerM float64 // time steps solved per month per simulation
	RoverX    float64 // R/X: response-time / throughput trade-off
	R2overX   float64 // R²/X: emphasises response time
}

// Evaluator returns the execution time in µs of one simulation on p
// processors (e.g. a closure over the plug-and-play model).
type Evaluator func(p int) (float64, error)

// Partitions evaluates running 1, 2, 4, ... jobs in parallel on equal
// splits of pavail processors (paper Figure 7).
func Partitions(pavail int, jobCounts []int, eval Evaluator) ([]PartitionPoint, error) {
	out := make([]PartitionPoint, 0, len(jobCounts))
	for _, jobs := range jobCounts {
		if jobs <= 0 || pavail%jobs != 0 {
			return nil, fmt.Errorf("metrics: cannot split %d processors into %d equal partitions", pavail, jobs)
		}
		part := pavail / jobs
		r, err := eval(part)
		if err != nil {
			return nil, err
		}
		// X: jobs simulations complete per time R, i.e. throughput in
		// simulations per µs is jobs/R.
		x := float64(jobs) / r
		out = append(out, PartitionPoint{
			Pavail:    pavail,
			Jobs:      jobs,
			Partition: part,
			R:         r,
			X:         x,
			StepsPerM: TimeStepsPerMonth(r),
			RoverX:    r / x,
			R2overX:   r * r / x,
		})
	}
	return out, nil
}

// Optimum identifies the partitioning that minimises the given criterion.
type Criterion int

// Partition-choice criteria (paper Figure 8): R/X balances response time
// against throughput; R²/X places greater emphasis on response time.
const (
	MinRoverX Criterion = iota
	MinR2overX
)

// Optimal returns the partition point minimising the criterion.
func Optimal(points []PartitionPoint, c Criterion) (PartitionPoint, error) {
	if len(points) == 0 {
		return PartitionPoint{}, fmt.Errorf("metrics: no partition points")
	}
	best := points[0]
	for _, p := range points[1:] {
		switch c {
		case MinR2overX:
			if p.R2overX < best.R2overX {
				best = p
			}
		default:
			if p.RoverX < best.RoverX {
				best = p
			}
		}
	}
	return best, nil
}

// OptimalJobs sweeps the power-of-two job counts on pavail processors and
// returns the optimal number of parallel simulations under the criterion
// (paper Figure 9). minPartition bounds the smallest per-job partition
// considered.
func OptimalJobs(pavail, minPartition int, c Criterion, eval Evaluator) (PartitionPoint, error) {
	var jobs []int
	for j := 1; pavail/j >= minPartition; j *= 2 {
		if pavail%j == 0 {
			jobs = append(jobs, j)
		}
	}
	if len(jobs) == 0 {
		return PartitionPoint{}, fmt.Errorf("metrics: no feasible job counts for pavail=%d minPartition=%d", pavail, minPartition)
	}
	points, err := Partitions(pavail, jobs, eval)
	if err != nil {
		return PartitionPoint{}, err
	}
	return Optimal(points, c)
}

// DiminishingReturns returns the smallest processor count in the sorted
// sweep beyond which doubling processors improves execution time by less
// than the given fraction (e.g. 0.2 for 20%); it returns the last point if
// no such knee exists.
func DiminishingReturns(ps []int, times []float64, threshold float64) (int, error) {
	if len(ps) != len(times) || len(ps) == 0 {
		return 0, fmt.Errorf("metrics: invalid sweep")
	}
	for i := 0; i+1 < len(ps); i++ {
		if times[i] <= 0 {
			return 0, fmt.Errorf("metrics: non-positive time at p=%d", ps[i])
		}
		improvement := 1 - times[i+1]/times[i]
		if improvement < threshold {
			return ps[i], nil
		}
	}
	return ps[len(ps)-1], nil
}
