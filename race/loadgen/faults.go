package loadgen

import (
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/race/fleet"
	"repro/race/server"
)

// FaultSchedules are the Config.Faults values: the three seams the
// internal/fault package injects at.
//
//   - disk: one backend's journals sit on a failing disk (failed syncs and
//     writes, then an ENOSPC wall); the other backend's disk stays clean.
//   - net: the client↔router wire drops connections, flips bits, and adds
//     latency. Flips must surface as CRC-caught corrupt frames, drops as
//     reconnect + resume.
//   - flap: one backend flaps up and down, severing its wire ops and probes
//     while down; sessions must ride the failovers.
var FaultSchedules = []string{"disk", "net", "flap"}

// faultFleet is the system under a fault run: two durable raced backends
// in process (real TCP, real journals) behind a router, with one seeded
// fault schedule armed. The same seed arms the same schedule.
type faultFleet struct {
	addr     string       // router wire address
	injected func() int64 // faults fired so far
	cleanup  []func()
}

func (f *faultFleet) close() {
	for i := len(f.cleanup) - 1; i >= 0; i-- {
		f.cleanup[i]()
	}
}

// startFaultFleet boots the fleet with schedule armed, logging to logger.
// Fast probes and breakers keep failover inside a short run's patience.
func startFaultFleet(schedule string, seed uint64, logger *slog.Logger) (_ *faultFleet, err error) {
	f := &faultFleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	tmp, err := os.MkdirTemp("", "raceload-faults-")
	if err != nil {
		return nil, err
	}
	f.cleanup = append(f.cleanup, func() { os.RemoveAll(tmp) })

	var fs1 fault.FS = fault.OS{}
	var gate *fault.Gate
	opts := fleet.Options{
		ProbeInterval:   50 * time.Millisecond,
		ProbeThreshold:  2,
		BreakerCooldown: 200 * time.Millisecond,
		IOTimeout:       5 * time.Second,
		Logger:          logger,
	}
	switch schedule {
	case "disk":
		injectFS := fault.NewInjectFS(fault.OS{}, fault.FSPlan{
			Seed:          seed,
			SyncFailProb:  0.02,
			WriteFailProb: 0.002,
			ENOSPCAfter:   8 << 20,
		})
		fs1 = injectFS
		f.injected = injectFS.Injected
	case "net":
		// Probabilities are per Read/Write call (bufio batches them into a
		// few dozen calls per megabyte), so per-call odds this high still
		// mean a handful of faults per session, not a storm.
		plan := fault.ConnPlan{
			Seed:       seed,
			LatencyMax: 200 * time.Microsecond,
			DropProb:   0.03,
			FlipProb:   0.02,
			FirstByte:  1 << 14, // let every handshake through
		}
		connStats := fault.NewConnStats()
		rng := fault.NewRand(seed)
		var mu sync.Mutex // the router accepts connections concurrently
		opts.WrapConn = func(conn net.Conn) net.Conn {
			p := plan
			mu.Lock()
			p.Seed = rng.Split() // per-connection sub-schedule
			mu.Unlock()
			return fault.WrapConn(conn, p, connStats)
		}
		f.injected = func() int64 {
			// Latency is seasoning, not a fault; count the ones that break
			// something.
			counts := connStats.Counts()
			return counts["drop"] + counts["flip"] + counts["stall"]
		}
	case "flap":
		gate = fault.NewGate(fault.GatePlan{
			Seed:     seed,
			MeanUp:   400 * time.Millisecond,
			MeanDown: 120 * time.Millisecond,
		})
		f.injected = gate.Faults
	default:
		return nil, fmt.Errorf("unknown fault schedule %q (want one of %v)", schedule, FaultSchedules)
	}

	backend := func(name string, fsys fault.FS) (*fleet.Local, error) {
		dir := filepath.Join(tmp, name)
		if err := os.MkdirAll(dir, 0o777); err != nil {
			return nil, err
		}
		srv := server.New(server.Config{
			DataDir: dir, FS: fsys, IdleTimeout: -1, IOTimeout: 5 * time.Second,
			Logger: logger.With("backend", name),
		})
		f.cleanup = append(f.cleanup, func() { srv.Close() })
		return fleet.NewLocal(name, srv), nil
	}
	b1, err := backend("b1", fs1)
	if err != nil {
		return nil, err
	}
	b2, err := backend("b2", fault.OS{})
	if err != nil {
		return nil, err
	}
	var sick fleet.Backend = b1
	if gate != nil {
		sick = fleet.NewFaultBackend(b1, func(op string) error {
			switch op {
			case "open", "resume", "feed", "flush", "close", "healthz":
				return gate.Err()
			}
			return nil
		})
	}

	rt, err := fleet.New([]fleet.Backend{sick, b2}, opts)
	if err != nil {
		return nil, err
	}
	f.cleanup = append(f.cleanup, rt.Close)
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.cleanup = append(f.cleanup, func() { lis.Close() })
	go rt.ServeTCP(lis)
	f.addr = lis.Addr().String()
	return f, nil
}
