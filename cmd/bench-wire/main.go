// Command bench-wire is the A/B harness for the V2I wire: the
// length-prefixed binary frames every connection carries against a
// JSON text envelope built with encoding/json, the reference the
// binary codec replaced, and in-memory links against connections end
// to end. Every link carries one unicast quote per vehicle. It emits
// machine-readable BENCH_wire.json with four measurements:
//
//   - codec: encode and decode ns/op and bytes/frame for a
//     representative C-section quote on each codec — json.Marshal and
//     json.Unmarshal of the JSON envelope plus Open against the binary
//     frame codec — and the binary codec's steady-state allocs/op
//     (encode and decode);
//   - broadcast: the bytes needed to deliver one round of quotes to N
//     vehicles — N unicast Quote frames on the binary codec vs the
//     same N quotes as JSON envelopes;
//   - game: the same N-vehicle pricing game run end to end over both
//     links (in-memory channel pairs vs connection-backed pipe pairs),
//     with wall clock, per-round latency, and the resulting welfare
//     compared bit for bit;
//   - gates: with -check the run exits non-zero unless the binary
//     codec is at least 3× JSON on both encode and decode, its encode
//     and decode are allocation-free, the binary round costs at most
//     half the JSON bytes, and the two links' welfare agrees to the
//     last bit.
//
// Usage:
//
//	bench-wire [-n 1000] [-c 20] [-parallel 64] [-o BENCH_wire.json] [-check]
//
// CI runs this under -race and uploads the JSON as a build artifact.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"olevgrid/internal/core"
	"olevgrid/internal/sched"
	"olevgrid/internal/v2i"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench-wire:", err)
		os.Exit(1)
	}
}

type codecBench struct {
	JSONEncodeNsOp float64 `json:"json_encode_ns_op"`
	JSONDecodeNsOp float64 `json:"json_decode_ns_op"`
	BinEncodeNsOp  float64 `json:"bin_encode_ns_op"`
	BinDecodeNsOp  float64 `json:"bin_decode_ns_op"`
	EncodeSpeedup  float64 `json:"encode_speedup"`
	DecodeSpeedup  float64 `json:"decode_speedup"`

	JSONBytesFrame int `json:"json_bytes_frame"`
	BinBytesFrame  int `json:"bin_bytes_frame"`

	BinEncodeAllocsOp float64 `json:"bin_encode_allocs_op"`
	BinDecodeAllocsOp float64 `json:"bin_decode_allocs_op"`
}

type broadcastBench struct {
	Fleet    int `json:"fleet"`
	Sections int `json:"sections"`
	// JSONUnicastBytes is one round of quotes as N unicast JSON Quote
	// envelopes, each carrying its own background vector.
	JSONUnicastBytes int `json:"json_unicast_bytes"`
	// BinaryUnicastBytes is the same round as the N binary Quote
	// frames every link sends.
	BinaryUnicastBytes int     `json:"binary_unicast_bytes"`
	Ratio              float64 `json:"ratio"`
}

type gameRun struct {
	Rounds    int     `json:"rounds"`
	Converged bool    `json:"converged"`
	Welfare   float64 `json:"welfare_per_hour"`
	WallMS    float64 `json:"wall_ms"`
	RoundMS   float64 `json:"round_ms"`
}

type gameBench struct {
	Fleet       int     `json:"fleet"`
	Sections    int     `json:"sections"`
	Parallelism int     `json:"parallelism"`
	JSON        gameRun `json:"json"`
	Binary      gameRun `json:"binary"`
	// WelfareBitwiseEqual is the headline correctness gate: both links
	// land on the identical float64, not merely within tolerance.
	WelfareBitwiseEqual bool `json:"welfare_bitwise_equal"`
}

type benchFile struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_max_procs"`

	Codec     codecBench     `json:"codec"`
	Broadcast broadcastBench `json:"broadcast"`
	Game      gameBench      `json:"game"`

	GateEncodeSpeedup  bool `json:"gate_encode_speedup"`  // binary >= 3x JSON encode
	GateDecodeSpeedup  bool `json:"gate_decode_speedup"`  // binary >= 3x JSON decode
	GateZeroAlloc      bool `json:"gate_zero_alloc"`      // binary encode+decode allocation-free
	GateBroadcastBytes bool `json:"gate_broadcast_bytes"` // binary <= half the JSON bytes
	GateWelfareBitwise bool `json:"gate_welfare_bitwise"` // both links, same float64
	Pass               bool `json:"pass"`
}

func run() error {
	n := flag.Int("n", 1000, "fleet size for the broadcast and game measurements")
	c := flag.Int("c", 20, "charging sections")
	// Sequential turns by default: Theorem IV.1 guarantees the
	// sequential dynamics converge (Jacobi sweeps can limit-cycle at
	// high congestion), and one-RPC-at-a-time is also the cleanest
	// isolation of per-frame codec cost in the round latency.
	parallel := flag.Int("parallel", 1, "coordinator batch size for the game runs")
	tol := flag.Float64("tol", 1e-3, "game convergence tolerance (kW)")
	rounds := flag.Int("rounds", 300, "game round budget")
	out := flag.String("o", "BENCH_wire.json", "output path (- for stdout)")
	check := flag.Bool("check", false, "exit non-zero unless every gate holds")
	flag.Parse()

	file := benchFile{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	var err error
	if file.Codec, err = runCodecBench(*c); err != nil {
		return fmt.Errorf("codec bench: %w", err)
	}
	if file.Broadcast, err = runBroadcastBench(*n, *c); err != nil {
		return fmt.Errorf("broadcast bench: %w", err)
	}
	if file.Game, err = runGameAB(*n, *c, *parallel, *tol, *rounds); err != nil {
		return fmt.Errorf("game bench: %w", err)
	}

	file.GateEncodeSpeedup = file.Codec.EncodeSpeedup >= 3
	file.GateDecodeSpeedup = file.Codec.DecodeSpeedup >= 3
	file.GateZeroAlloc = file.Codec.BinEncodeAllocsOp == 0 && file.Codec.BinDecodeAllocsOp == 0
	file.GateBroadcastBytes = file.Broadcast.Ratio > 0 && file.Broadcast.Ratio <= 0.5
	file.GateWelfareBitwise = file.Game.WelfareBitwiseEqual &&
		file.Game.JSON.Converged && file.Game.Binary.Converged
	file.Pass = file.GateEncodeSpeedup && file.GateDecodeSpeedup && file.GateZeroAlloc &&
		file.GateBroadcastBytes && file.GateWelfareBitwise

	if err := emit(*out, file); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"bench-wire: encode %.1fx decode %.1fx | frame %dB->%dB | broadcast ratio %.3f at N=%d | game rounds=%d/%d round %.2f/%.2f ms bitwise=%v\n",
		file.Codec.EncodeSpeedup, file.Codec.DecodeSpeedup,
		file.Codec.JSONBytesFrame, file.Codec.BinBytesFrame,
		file.Broadcast.Ratio, file.Broadcast.Fleet,
		file.Game.JSON.Rounds, file.Game.Binary.Rounds,
		file.Game.JSON.RoundMS, file.Game.Binary.RoundMS,
		file.Game.WelfareBitwiseEqual)
	if *check && !file.Pass {
		return fmt.Errorf("acceptance gates failed: encode=%v decode=%v zero_alloc=%v broadcast=%v welfare=%v",
			file.GateEncodeSpeedup, file.GateDecodeSpeedup, file.GateZeroAlloc,
			file.GateBroadcastBytes, file.GateWelfareBitwise)
	}
	return nil
}

// benchQuote is the representative frame both codec measurements use:
// a quote carrying a C-section background vector of full-precision
// floats, the shape that dominates a session's traffic.
func benchQuote(c int) v2i.Quote {
	others := make([]float64, c)
	for i := range others {
		// Full-precision decimals, like any water-filled schedule: a
		// converged allocation never prints short.
		others[i] = 53.55 * math.Sqrt(float64(i)+2) / 3.7
	}
	return v2i.Quote{
		VehicleID: "ev-0042", Others: others, Round: 17, Epoch: 911, FleetSize: 1000,
		Cost: costSpec(),
	}
}

func costSpec() v2i.CostSpec {
	return v2i.CostSpec{
		Kind: "nonlinear", BetaPerKWh: 0.02, Alpha: 0.875,
		LineCapacityKW: 53.55, OverloadKappaPerKWh: 10, OverloadCapacityKW: 0.9 * 53.55,
	}
}

// jsonEnvelope is the JSON reference envelope: an Envelope literal
// around the body's encoding/json text.
func jsonEnvelope(typ v2i.MessageType, from string, seq uint64, body any) (v2i.Envelope, error) {
	raw, err := json.Marshal(body)
	return v2i.Envelope{Type: typ, From: from, Seq: seq, Body: raw}, err
}

func runCodecBench(c int) (codecBench, error) {
	var out codecBench
	quote := benchQuote(c)
	env, err := jsonEnvelope(v2i.TypeQuote, "smart-grid", 7, &quote)
	if err != nil {
		return out, err
	}
	jframe, err := json.Marshal(env)
	if err != nil {
		return out, err
	}
	bframe, err := v2i.AppendBinaryFrame(nil, v2i.TypeQuote, "smart-grid", 7, &quote)
	if err != nil {
		return out, err
	}
	out.JSONBytesFrame = len(jframe)
	out.BinBytesFrame = len(bframe)

	nsPerOp := func(f func()) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f()
			}
		})
		return float64(r.NsPerOp())
	}

	// Encode: a fresh Marshal of the JSON envelope, an append into a
	// reused buffer for binary (the typed path).
	out.JSONEncodeNsOp = nsPerOp(func() {
		b, err := json.Marshal(env)
		if err != nil || len(b) == 0 {
			panic("marshal")
		}
	})
	buf := make([]byte, 0, 4096)
	out.BinEncodeNsOp = nsPerOp(func() {
		var err error
		buf, err = v2i.AppendBinaryFrame(buf[:0], v2i.TypeQuote, "smart-grid", 7, &quote)
		if err != nil {
			panic("encode")
		}
	})

	// Decode: encoded bytes back to an opened Quote.
	var jq v2i.Quote
	out.JSONDecodeNsOp = nsPerOp(func() {
		var env v2i.Envelope
		if err := json.Unmarshal(jframe, &env); err != nil {
			panic("decode")
		}
		jq = v2i.Quote{}
		if err := v2i.Open(env, v2i.TypeQuote, &jq); err != nil {
			panic("open")
		}
	})
	var dec v2i.FrameDecoder
	var bq v2i.Quote
	out.BinDecodeNsOp = nsPerOp(func() {
		env, err := dec.Decode(bframe)
		if err != nil {
			panic("decode")
		}
		if err := v2i.Open(env, v2i.TypeQuote, &bq); err != nil {
			panic("open")
		}
	})
	out.EncodeSpeedup = out.JSONEncodeNsOp / out.BinEncodeNsOp
	out.DecodeSpeedup = out.JSONDecodeNsOp / out.BinDecodeNsOp

	// Steady-state allocation accounting for the binary codec: both
	// directions must be free once buffers are warm.
	out.BinEncodeAllocsOp = testing.AllocsPerRun(200, func() {
		var err error
		buf, err = v2i.AppendBinaryFrame(buf[:0], v2i.TypeQuote, "smart-grid", 7, &quote)
		if err != nil {
			panic("encode")
		}
	})
	out.BinDecodeAllocsOp = testing.AllocsPerRun(200, func() {
		env, err := dec.Decode(bframe)
		if err != nil {
			panic("decode")
		}
		if err := v2i.Open(env, v2i.TypeQuote, &bq); err != nil {
			panic("open")
		}
	})
	return out, nil
}

func runBroadcastBench(n, c int) (broadcastBench, error) {
	out := broadcastBench{Fleet: n, Sections: c}
	// Every vehicle gets its own Quote with its own background vector
	// (others = totals − own differs per vehicle), on either codec.
	q := benchQuote(c)
	q.FleetSize = n
	var buf []byte
	for i := 0; i < n; i++ {
		q.VehicleID = fmt.Sprintf("ev-%04d", i)
		env, err := jsonEnvelope(v2i.TypeQuote, "smart-grid", uint64(i+1), &q)
		if err != nil {
			return out, err
		}
		frame, err := json.Marshal(env)
		if err != nil {
			return out, err
		}
		out.JSONUnicastBytes += len(frame)
		if buf, err = v2i.AppendBinaryFrame(buf[:0], v2i.TypeQuote, "smart-grid", uint64(i+1), &q); err != nil {
			return out, err
		}
		out.BinaryUnicastBytes += len(buf)
	}
	out.Ratio = float64(out.BinaryUnicastBytes) / float64(out.JSONUnicastBytes)
	return out, nil
}

// runGame plays one clean n-vehicle game — on in-memory channel pairs,
// or with pipe on connection-backed pipe pairs — and reports rounds,
// welfare, and wall clock.
func runGame(pipe bool, n, c, parallel int, tol float64, rounds int) (gameRun, error) {
	var out gameRun
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	links := make(map[string]v2i.Transport, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("ev-%04d", i)
		gridSide, vehSide := v2i.NewPair(64)
		if pipe {
			gridSide, vehSide = v2i.NewPipePair()
		}
		links[id] = gridSide
		agent, err := sched.NewAgent(sched.AgentConfig{
			VehicleID:    id,
			MaxPowerKW:   60,
			Satisfaction: core.LogSatisfaction{Weight: 1 + 0.06*float64(i%5)},
		}, vehSide)
		if err != nil {
			return out, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = agent.Run(ctx)
			_ = vehSide.Close()
		}()
	}

	coord, err := sched.NewCoordinator(sched.CoordinatorConfig{
		NumSections:    c,
		LineCapacityKW: 53.55,
		Cost:           costSpec(),
		Tolerance:      tol,
		MaxRounds:      rounds,
		RoundTimeout:   30 * time.Second, // in-process pipes: a timeout would only inject retry nondeterminism
		Parallelism:    parallel,
		ShutdownGrace:  200 * time.Millisecond,
		Seed:           11,
	}, links)
	if err != nil {
		return out, err
	}
	start := time.Now()
	report, err := coord.Run(ctx)
	wall := time.Since(start)
	if err != nil {
		return out, fmt.Errorf("pipe=%v: %w", pipe, err)
	}
	_ = coord.Close()
	wg.Wait()

	out.Rounds = report.Rounds
	out.Converged = report.Converged
	out.Welfare = -report.WelfareCost
	out.WallMS = float64(wall) / float64(time.Millisecond)
	if report.Rounds > 0 {
		out.RoundMS = out.WallMS / float64(report.Rounds)
	}
	return out, nil
}

func runGameAB(n, c, parallel int, tol float64, rounds int) (gameBench, error) {
	out := gameBench{Fleet: n, Sections: c, Parallelism: parallel}
	var err error
	if out.JSON, err = runGame(false, n, c, parallel, tol, rounds); err != nil {
		return out, err
	}
	if out.Binary, err = runGame(true, n, c, parallel, tol, rounds); err != nil {
		return out, err
	}
	out.WelfareBitwiseEqual = math.Float64bits(out.JSON.Welfare) == math.Float64bits(out.Binary.Welfare) &&
		out.JSON.Rounds == out.Binary.Rounds
	return out, nil
}

func emit(path string, file benchFile) error {
	blob, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(blob)
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
