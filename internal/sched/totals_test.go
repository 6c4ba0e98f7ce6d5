package sched

import (
	"context"
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"sort"
	"testing"

	"olevgrid/internal/v2i"
)

// sinkLink is a vehicle link that accepts every frame and never
// answers: enough for driving installRequest directly.
type sinkLink struct{}

func (sinkLink) Send(context.Context, v2i.Envelope) error { return nil }
func (sinkLink) Recv(ctx context.Context) (v2i.Envelope, error) {
	<-ctx.Done()
	return v2i.Envelope{}, ctx.Err()
}
func (sinkLink) Close() error { return nil }

// assertTotalsAccurate checks every section total against the exact
// (math/big) sum of its rows: the pairwise fold's error is at most
// ⌈log₂N⌉·u·Σ_n|p_n,c|, u = 2^-53.
func assertTotalsAccurate(t *testing.T, when string, c *Coordinator) {
	t.Helper()
	depth := 0
	if n := len(c.slots); n > 1 {
		depth = bits.Len(uint(n - 1)) // ⌈log₂N⌉
	}
	totals := c.SectionTotals()
	for s, got := range totals {
		exact, abs := new(big.Rat), new(big.Rat)
		for _, v := range c.slots {
			x := new(big.Rat).SetFloat64(v.row[s])
			exact.Add(exact, x)
			abs.Add(abs, x.Abs(x))
		}
		bound := abs.Mul(abs, new(big.Rat).SetFrac64(int64(depth), 1<<53))
		diff := new(big.Rat).SetFloat64(got)
		diff.Sub(diff, exact)
		if diff.Abs(diff).Cmp(bound) > 0 {
			t.Fatalf("%s: section %d total %v is %s off the exact sum, bound %s (N=%d)",
				when, s, got, diff.FloatString(30), bound.FloatString(30), len(c.slots))
		}
	}
}

// TestSectionTreeProperty mixes every writer of the coordinator's rows
// in a seeded random order — installs (uncapped and draw-capped),
// scripted outages and restorations, checkpoint restores, journal-seeded
// joins, AddVehicle, departures and ResumeCoordinator takeovers — and
// after each step requires the section totals to equal a from-scratch
// pairwise fold of the rows bit for bit, and every section to lie within
// the fold's error bound of the exact sum.
func TestSectionTreeProperty(t *testing.T) {
	const sections = 7
	rng := rand.New(rand.NewSource(24))
	journal := NewMemJournal()
	cfg := CoordinatorConfig{
		NumSections: sections, LineCapacityKW: 53.55, Cost: nonlinearSpec(),
		Journal: journal,
		Outages: []SectionOutage{
			{Section: 2, DownRound: 3, UpRound: 9},
			{Section: 5, DownRound: 6},
			{Section: 0, DownRound: 12, UpRound: 20},
			{Section: 2, DownRound: 15, UpRound: 16},
		},
	}
	links := make(map[string]v2i.Transport)
	next := 0
	newID := func() string {
		next++
		return fmt.Sprintf("ev-%03d", (next*37)%1000) // joins land all over the sort order
	}
	for i := 0; i < 5; i++ {
		links[newID()] = sinkLink{}
	}
	c, err := NewCoordinator(cfg, links)
	if err != nil {
		t.Fatal(err)
	}
	dl := newDeadline(context.Background())
	defer dl.release()
	pick := func() *vehicle { return c.slots[rng.Intn(len(c.slots))] }

	round := 1
	for step := 0; step < 1500; step++ {
		var what string
		switch op := rng.Intn(21); {
		case op < 11:
			v := pick()
			what = "install " + v.id
			c.others = othersFrom(c.others, c.totalsVec(), v.row)
			req := v2i.Request{VehicleID: v.id, TotalKW: 80 * rng.Float64()}
			switch rng.Intn(8) {
			case 0:
				req.TotalKW = 0
			case 1:
				req.DrawCapKW = 2 + 10*rng.Float64()
			case 2:
				req.TotalKW *= 1e-9 // a row far below its neighbors
			}
			if _, err := c.installRequest(dl, v, round, c.others, req); err != nil {
				t.Fatal(err)
			}
		case op < 13:
			round++
			what = fmt.Sprintf("round %d's section events", round)
			c.applyOutages(round)
		case op < 14:
			what = "checkpoint restore"
			cp := Checkpoint{Epoch: c.epoch, NumSections: sections, Schedule: map[string][]float64{}}
			for _, v := range c.slots {
				if rng.Intn(4) == 0 {
					continue // a vehicle the checkpoint does not know resets to zero
				}
				row := make([]float64, sections)
				for s := range row {
					row[s] = 20 * rng.Float64()
				}
				cp.Schedule[v.id] = row
			}
			c.restoreCheckpoint(cp)
		case op < 15:
			what = "save checkpoint"
			c.saveCheckpoint(round)
		case op < 17:
			id := newID()
			if rng.Intn(2) == 0 {
				if cp, ok, _ := journal.Load(); ok {
					var gone []string
					for known := range cp.Schedule {
						if _, live := c.index[known]; !live {
							gone = append(gone, known)
						}
					}
					if len(gone) > 0 {
						sort.Strings(gone)
						id = gone[rng.Intn(len(gone))] // a journaled vehicle re-joins, seeded from its row
					}
				}
			}
			what = "join " + id
			if err := c.Join(id, sinkLink{}); err != nil {
				t.Fatal(err)
			}
			c.admitJoins()
		case op < 18:
			what = "add vehicle"
			if err := c.AddVehicle(newID(), sinkLink{}); err != nil {
				t.Fatal(err)
			}
		case op < 20:
			if len(c.slots) < 3 {
				continue
			}
			v := pick()
			what = "departure of " + v.id
			c.removeVehicle(v)
		default:
			what = "takeover"
			cp := c.report(round, false).Schedule
			c, err = ResumeCoordinator(cfg, c.links, Takeover{
				Epoch: c.epoch + 10, HasCheckpoint: true,
				Checkpoint: Checkpoint{Epoch: c.epoch, NumSections: sections, Schedule: cp},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		when := fmt.Sprintf("step %d (%s)", step, what)
		assertTotalsFresh(t, when, c)
		assertTotalsAccurate(t, when, c)
	}
	if len(c.slots) < 5 {
		t.Fatalf("the walk ended with %d vehicles; the property never saw a deep tree", len(c.slots))
	}
	t.Logf("ended at N=%d, round %d, epoch %d", len(c.slots), round, c.epoch)
}
