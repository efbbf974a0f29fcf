package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// vetTargets lists every (archetype, variant) a workload draws unit seeds
// for, as pools.go keys them, with the slowest round a pool seed may contain
// on the reference box. The limits do two jobs: they keep every operation
// far from the watchdog, and — for the paper-scale archetypes, whose
// slowest-round distribution is heavy-tailed over three decades (a few
// milliseconds to tens of seconds, branch-and-bound blow-ups) — they cut
// that tail off, so that a pass's totals are set by typical arrival rounds
// and not by whether its seed drew one of the rare monsters. The excluded
// seeds are the known cliffs README.md lists for later issues.
var vetTargets = []struct {
	key, archetype string
	strip          bool
	epochs         int
	limit          time.Duration
}{
	{"heavy-tail/stripped", "heavy-tail", true, 40, 250 * time.Millisecond},
	{"handover/stripped", "handover", true, 40, 250 * time.Millisecond},
	{"flash-crowd", "flash-crowd", false, 0, 250 * time.Millisecond},
	{"flash-drift", "flash-drift", false, 0, 250 * time.Millisecond},
	{"churn", "churn", false, 0, 250 * time.Millisecond},
	{"degradation", "degradation", false, 0, 250 * time.Millisecond},
	{"metro", "metro", false, 2, 5 * time.Second},
}

// cmdVet scans pool seeds: each (target, seed) runs closed loop to its
// horizon in a child process (so that a pathological round can be killed),
// and the seeds whose slowest round exceeded the target's limit — or that
// stalled the child for four times as long — are dropped; what remains is
// printed, cheapest first, as the pool map for pools.go.
func cmdVet(args []string) int {
	fs := flag.NewFlagSet("vet", flag.ContinueOnError)
	from := fs.Int64("from", 0, "first pool seed")
	to := fs.Int64("to", poolSize, "one past the last pool seed")
	only := fs.String("target", "", "vet one target key only")
	child := fs.String("child", "", "internal: run one target over the seed range and print per-seed maxima")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *child != "" {
		return vetChild(*child, *from, *to)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vet:", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "vet:", err)
		return 1
	}
	log, err := os.Create(filepath.Join(outDir, "vet.log")) // every seed's slowest round, for the record
	if err != nil {
		fmt.Fprintln(os.Stderr, "vet:", err)
		return 1
	}
	defer log.Close()
	type vetted struct {
		seed  int64
		maxMs float64
	}
	good := map[string][]vetted{}
	for _, tg := range vetTargets {
		if *only != "" && *only != tg.key {
			continue
		}
		for s := *from; s < *to; {
			// The child reports each finished seed; when it stalls on one,
			// it is killed, the seed is excluded and the scan resumes after it.
			cmd := exec.Command(exe, "vet", "-child", tg.key, "-from", fmt.Sprint(s), "-to", fmt.Sprint(*to))
			out, _ := runLimited(cmd, 4*tg.limit)
			log.Write(out)
			next := s
			for _, ln := range strings.Split(string(out), "\n") {
				var seed int64
				var maxMs float64
				if n, _ := fmt.Sscanf(ln, "seed %d max_ms %f", &seed, &maxMs); n == 2 {
					if maxMs > ms(tg.limit) {
						fmt.Fprintf(os.Stderr, "vet: %s seed %d: slowest round %.0f ms — excluded\n", tg.key, seed, maxMs)
					} else {
						good[tg.key] = append(good[tg.key], vetted{seed, maxMs})
					}
					next = seed + 1
				}
			}
			if next < *to && !strings.Contains(string(out), "done") {
				fmt.Fprintf(os.Stderr, "vet: %s seed %d: no result within %v — excluded\n", tg.key, next, 4*tg.limit)
				next++
			}
			s = next
		}
	}
	fmt.Println("var pool = map[string][]int64{")
	for _, tg := range vetTargets {
		if kept := good[tg.key]; len(kept) > 0 {
			sort.Slice(kept, func(i, j int) bool {
				if kept[i].maxMs != kept[j].maxMs {
					return kept[i].maxMs < kept[j].maxMs
				}
				return kept[i].seed < kept[j].seed
			})
			fmt.Printf("\t%q: {", tg.key)
			for i, k := range kept {
				if i > 0 {
					fmt.Print(", ")
				}
				fmt.Print(k.seed)
			}
			fmt.Println("},")
		}
	}
	fmt.Println("}")
	return 0
}

// runLimited runs cmd, killing it when it prints nothing new for idle.
func runLimited(cmd *exec.Cmd, idle time.Duration) ([]byte, error) {
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout = pw
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	pw.Close()
	chunks := make(chan []byte)
	go func() {
		defer close(chunks)
		buf := make([]byte, 4096)
		for {
			n, err := pr.Read(buf)
			if n > 0 {
				chunks <- append([]byte(nil), buf[:n]...)
			}
			if err != nil {
				return
			}
		}
	}()
	var out []byte
	timer := time.NewTimer(idle)
	defer timer.Stop()
	for {
		select {
		case c, ok := <-chunks:
			if !ok {
				pr.Close()
				return out, cmd.Wait()
			}
			out = append(out, c...)
			timer.Reset(idle)
		case <-timer.C:
			cmd.Process.Kill()
			for range chunks {
			}
			pr.Close()
			cmd.Wait()
			return out, fmt.Errorf("idle for %v", idle)
		}
	}
}

// vetChild runs one target over [from, to) and prints each seed's slowest
// round as soon as the seed finishes.
func vetChild(key string, from, to int64) int {
	for _, tg := range vetTargets {
		if tg.key != key {
			continue
		}
		w := &workload{name: "vet"}
		for s := from; s < to; s++ {
			p := newPass(w, s, 1, false, "")
			u, err := newLoopUnit(p, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "vet:", err)
				return 1
			}
			d, err := u.add(domainPlan{archetype: tg.archetype, seed: s, strip: tg.strip, epochs: tg.epochs})
			if err != nil {
				fmt.Fprintln(os.Stderr, "vet:", err)
				return 1
			}
			for d.epoch < d.cfg.Epochs {
				if err := d.step(true); err != nil {
					fmt.Fprintln(os.Stderr, "vet:", err)
					return 1
				}
			}
			u.close()
			p.close()
			fmt.Printf("seed %d max_ms %.1f target %s p50_ms %.3f rounds %d decisions %d\n", s, maxOf(p.roundMs), key, median(p.roundMs), len(p.roundMs), len(p.decisionMs))
		}
		fmt.Println("done")
		return 0
	}
	fmt.Fprintf(os.Stderr, "vet: unknown target %q\n", key)
	return 2
}
