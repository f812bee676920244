// Command elsim runs a single e-learning deployment scenario and prints
// the measured result.
//
// Usage:
//
//	elsim -model hybrid -students 2000 -hours 6 -access rural-dsl \
//	      -scaler reactive -exam -seed 7
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"elearncloud/internal/deploy"
	"elearncloud/internal/metrics"
	"elearncloud/internal/network"
	"elearncloud/internal/scenario"
	"elearncloud/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "elsim:", err)
		os.Exit(1)
	}
}

// The choices each name flag accepts, spelled exactly as results print
// them; the flags' help strings list the same names.
var (
	models  = span(deploy.Public, deploy.Desktop)
	scalers = span(scenario.ScalerFixed, scenario.ScalerOracle)
	access  = []network.AccessProfile{network.CampusLAN, network.UrbanBroadband, network.RuralDSL}
)

func accessName(p network.AccessProfile) string { return p.Name }

// span lists every value of an enumeration from first to last.
func span[T ~int](first, last T) []T {
	var out []T
	for v := first; v <= last; v++ {
		out = append(out, v)
	}
	return out
}

// names joins the options' names for a help string.
func names[T any](opts []T, name func(T) string) string {
	out := make([]string, len(opts))
	for i, o := range opts {
		out[i] = name(o)
	}
	return strings.Join(out, "|")
}

// pick returns the option called got.
func pick[T any](what, got string, opts []T, name func(T) string) (T, error) {
	for _, o := range opts {
		if name(o) == got {
			return o, nil
		}
	}
	var zero T
	return zero, fmt.Errorf("unknown %s %q (want %s)", what, got, names(opts, name))
}

func run(args []string) error {
	fs := flag.NewFlagSet("elsim", flag.ContinueOnError)
	var (
		model    = fs.String("model", "public", "deployment model: "+names(models, deploy.Kind.String))
		students = fs.Int("students", 1000, "student population")
		hours    = fs.Float64("hours", 6, "simulated hours")
		accessIn = fs.String("access", "urban-broadband", "access profile: "+names(access, accessName))
		scaler   = fs.String("scaler", "reactive", "autoscaler: "+names(scalers, scenario.ScalerKind.String))
		exam     = fs.Bool("exam", false, "inject a 10x exam flash crowd mid-run")
		threats  = fs.Bool("threats", false, "enable the security threat model")
		useCDN   = fs.Bool("cdn", false, "serve video through an edge CDN")
		seed     = fs.Uint64("seed", 1, "simulation seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := scenario.Config{
		Seed:          *seed,
		Students:      *students,
		Duration:      time.Duration(*hours * float64(time.Hour)),
		EnableThreats: *threats,
		EnableCDN:     *useCDN,
	}
	var err error
	if cfg.Kind, err = pick("model", *model, models, deploy.Kind.String); err != nil {
		return err
	}
	if cfg.Access, err = pick("access profile", *accessIn, access, accessName); err != nil {
		return err
	}
	if cfg.Scaler, err = pick("scaler", *scaler, scalers, scenario.ScalerKind.String); err != nil {
		return err
	}
	if *exam {
		mid := cfg.Duration / 2
		cfg.Crowds = []workload.FlashCrowd{{
			Start: mid - 30*time.Minute, End: mid + 30*time.Minute,
			Mult: 10, ExamTraffic: true,
		}}
	}

	res, err := scenario.Run(cfg)
	if err != nil {
		return err
	}
	printResult(cfg, res)
	return nil
}

func printResult(cfg scenario.Config, res *scenario.Result) {
	fmt.Printf("model=%s scaler=%s students=%d horizon=%s seed=%d\n\n",
		res.Kind, res.Scaler, cfg.Students, res.Duration, cfg.Seed)
	s := res.Latency.Summarize()
	fmt.Printf("requests: served=%d rejected=%d offline=%d (error rate %s)\n",
		res.Served, res.Rejected, res.Offline, metrics.FmtPercent(res.ErrorRate()))
	fmt.Printf("latency:  p50=%s p95=%s p99=%s max=%s\n",
		metrics.FmtMillis(s.P50), metrics.FmtMillis(s.P95),
		metrics.FmtMillis(s.P99), metrics.FmtMillis(s.Max))
	fmt.Printf("fleet:    peak=%d servers, public %.1f VM-h, private %.1f VM-h on %d hosts\n",
		res.PeakServers, res.VMHoursPublic, res.VMHoursPrivate, res.PrivateHosts)
	fmt.Printf("network:  availability=%s disconnects=%d lost work=%s egress=%.2f GB\n",
		metrics.FmtPercent(res.NetAvailability), res.Disconnects,
		res.LostWork.Round(time.Second), res.EgressGB)
	if res.CDNGB > 0 {
		fmt.Printf("cdn:      %.2f GB delivered at %s hit ratio\n",
			res.CDNGB, metrics.FmtPercent(res.CDNHitRatio))
	}
	if res.PolicyViolations > 0 {
		fmt.Printf("hybrid:   %d sensitive requests burst to public\n", res.PolicyViolations)
	}
	if res.Breaches+res.DataLossEvents > 0 {
		fmt.Printf("threats:  breaches=%d exposures=%d loss events=%d bytes lost=%.1f GB\n",
			res.Breaches, res.SensitiveExposures, res.DataLossEvents, res.BytesLost/1e9)
	}
	fmt.Printf("cost:     %s (%s per student-month)\n",
		metrics.FmtDollars(res.Cost.Total()),
		metrics.FmtDollars(res.CostPerStudentMonth(cfg.Students)))
}
