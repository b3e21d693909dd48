// Package cluster implements Weaver's cluster manager (§3.2, §4.3): it
// tracks gatekeeper and shard liveness through heartbeats, and on failure
// reconfigures the cluster:
//
//  1. the epoch bump is committed to a Paxos-replicated configuration log
//     [37, 55], so manager replicas agree on the epoch history; a
//     restarting manager recovers the decided history from the acceptor
//     quorum and resumes above it, never from a locally-seeded default;
//  2. a barrier moves all servers to the new epoch in unison, as
//     wire.EpochChange messages each member acks with wire.EpochAck:
//     gatekeepers pause timestamp issuance; shards drain in-flight
//     traffic, execute what is queued and reset their FIFO streams; the
//     failed server is restarted (step 3); then gatekeepers restart their
//     vector clocks at zero in the new epoch and resume (old-epoch
//     timestamps order strictly before all new-epoch ones);
//  3. the failed server is restarted inside the pause, so nothing
//     new-epoch is sent to an address nobody serves yet. A member
//     registered with a restart callback (the embedded cluster) is reborn
//     in place: a shard reloads its partition from the backing store, a
//     gatekeeper starts with a fresh clock. A member in another process is
//     marked failed; its standby sees that through EpochQuery and takes
//     over, and its first heartbeat runs a rejoin barrier.
//
// The manager never calls a member: it sends to its address — a mailbox
// in this process or a TCP route — and waits for the acks of each phase
// with a bound (Config.BarrierTimeout), so a member that dies mid-barrier
// cannot wedge reconfiguration.
package cluster

import (
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"weaver/internal/binenc"
	"weaver/internal/paxos"
	"weaver/internal/transport"
	"weaver/internal/wire"
)

// member is one tracked server.
type member struct {
	addr transport.Addr
	// restart rebirths the member in this process once it is declared
	// dead; nil (another process) means mark failed, a standby takes over.
	restart  func(epoch uint64)
	lastBeat time.Time
	isGK     bool
	failed   bool
	// everBeat records that this member has heartbeated at least once:
	// a Boot-flagged EpochQuery from such a member is a restart (maybe
	// one the detector never saw), not a first boot.
	everBeat bool
}

// Config tunes failure detection.
type Config struct {
	// HeartbeatTimeout declares a server dead after this silence.
	HeartbeatTimeout time.Duration
	// StartEpoch seeds the epoch counter (a cluster reopened from a
	// durable backing store resumes above all pre-restart epochs). The
	// decided epoch log always wins over StartEpoch when it is higher.
	StartEpoch uint64
	// Acceptors optionally supplies the Paxos acceptor set — typically
	// remote.AcceptorClient handles reaching the other manager replicas'
	// processes. Nil means three fresh in-process acceptors.
	Acceptors []paxos.AcceptorAPI
	// ProposerID distinguishes this manager's ballots from concurrent
	// proposers on the same acceptor set (default 0).
	ProposerID int
	// ReconfigLock, when non-nil, is held across every Recover. Weaver
	// shares one lock between recovery and shard migration so an epoch
	// barrier can never interleave with a migration fence.
	ReconfigLock sync.Locker
	// BarrierTimeout bounds the wait for each phase's acks (default 2s);
	// a member that fails mid-barrier cannot wedge reconfiguration.
	BarrierTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 150 * time.Millisecond
	}
	if c.BarrierTimeout <= 0 {
		c.BarrierTimeout = 2 * time.Second
	}
	return c
}

// EpochBump is the configuration-log entry for one reconfiguration.
type EpochBump struct {
	Epoch  uint64
	Failed transport.Addr
}

// encodeBump serializes a bump for the Paxos log; values cross process
// boundaries as opaque bytes.
func encodeBump(b EpochBump) []byte {
	return binenc.AppendStr(binenc.AppendUvarint(nil, b.Epoch), string(b.Failed))
}

// decodeBump parses a log entry. Gap sentinels and foreign entries report
// ok=false.
func decodeBump(v any) (EpochBump, bool) {
	b, ok := v.([]byte)
	if !ok || paxos.IsGap(v) {
		return EpochBump{}, false
	}
	d := binenc.Decoder{Buf: b}
	eb := EpochBump{Epoch: d.Uvarint(), Failed: transport.Addr(d.Str())}
	return eb, d.Err == nil && len(d.Buf) == 0
}

// Manager is the cluster manager.
type Manager struct {
	cfg Config
	ep  transport.Endpoint
	log *paxos.Log

	mu      sync.Mutex
	members map[transport.Addr]*member
	epoch   uint64

	// acks funnels wire.EpochAck messages from the run loop to a barrier
	// in flight.
	acks chan wire.EpochAck
	// recovering serializes detector-triggered recoveries (the barrier
	// waits for acks the run loop must keep delivering, so Recover runs
	// off-loop).
	recovering atomic.Bool

	watchMu  sync.Mutex
	watchers []func(epoch uint64, failed transport.Addr)

	recoveries uint64
	stop       chan struct{}
	stopOnce   sync.Once
	done       chan struct{}
}

// Addr is the manager's well-known address (heartbeats in, barrier out).
const Addr = transport.Addr("climgr")

// BeatPeriod is how often a member heartbeats under the given
// failure-detection timeout: four beats per window, so one lost or late
// beat never looks like a death. Zero (no beats) without a timeout.
func BeatPeriod(timeout time.Duration) time.Duration { return max(timeout, 0) / 4 }

// replicas is the manager's default Paxos group size (Config.Acceptors).
const replicas = 3

// New builds a manager listening on ep. Its configuration log is a
// Paxos-replicated state machine (three in-process acceptors by default;
// cfg.Acceptors spreads them across manager processes). The epoch resumes
// from the decided log history when one exists.
func New(cfg Config, ep transport.Endpoint) *Manager {
	cfg = cfg.withDefaults()
	accs := cfg.Acceptors
	if len(accs) == 0 {
		accs = make([]paxos.AcceptorAPI, replicas)
		for i := range accs {
			accs[i] = paxos.NewAcceptor()
		}
	}
	m := &Manager{
		cfg:     cfg,
		ep:      ep,
		log:     paxos.NewLog(paxos.NewProposerOver(cfg.ProposerID, accs)),
		members: make(map[transport.Addr]*member),
		epoch:   cfg.StartEpoch,
		acks:    make(chan wire.EpochAck, 256),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	// Best effort at construction; managers joining an existing quorum
	// call SyncFromLog explicitly and handle the error.
	_ = m.SyncFromLog()
	return m
}

// SyncFromLog recovers the decided epoch history from the acceptor quorum
// and advances the local epoch to the highest decided bump. This is the
// restart path: a reborn manager resumes from the agreed history, not
// from StartEpoch.
func (m *Manager) SyncFromLog() error {
	hist, err := m.log.Recover()
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, v := range hist {
		if eb, ok := decodeBump(v); ok && eb.Epoch > m.epoch {
			m.epoch = eb.Epoch
		}
	}
	return nil
}

// maxDecidedEpochLocked scans the locally learned log for the highest
// decided epoch (callers hold no lock; the log has its own).
func (m *Manager) maxDecidedEpoch() uint64 {
	var max uint64
	for slot := uint64(1); slot < m.log.Next(); slot++ {
		if v, ok := m.log.Get(slot); ok {
			if eb, ok := decodeBump(v); ok && eb.Epoch > max {
				max = eb.Epoch
			}
		}
	}
	return max
}

// Register adds a member: it proves liveness via wire.Heartbeat and takes
// part in the epoch barrier via wire.EpochChange/EpochAck. restart, when
// non-nil, runs inside the barrier to rebirth a dead member at the new
// epoch; with nil (a member in another process) death marks it failed —
// visible through EpochQuery — so a standby can take over its role.
func (m *Manager) Register(addr transport.Addr, isGK bool, restart func(epoch uint64)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.members[addr] = &member{addr: addr, restart: restart, lastBeat: time.Now(), isGK: isGK}
}

// WatchEpochs registers fn to run after every completed reconfiguration
// with the new epoch and the failed member's address.
func (m *Manager) WatchEpochs(fn func(epoch uint64, failed transport.Addr)) {
	m.watchMu.Lock()
	m.watchers = append(m.watchers, fn)
	m.watchMu.Unlock()
}

// Epoch returns the current epoch.
func (m *Manager) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// Failed returns the addresses currently marked failed.
func (m *Manager) Failed() []transport.Addr {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []transport.Addr
	for _, mem := range m.members {
		if mem.failed {
			out = append(out, mem.addr)
		}
	}
	return out
}

// Recoveries returns how many reconfigurations have run.
func (m *Manager) Recoveries() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recoveries
}

// Start launches the heartbeat listener and failure detector.
func (m *Manager) Start() {
	go m.run()
}

// Stop terminates the manager.
func (m *Manager) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	<-m.done
}

func (m *Manager) run() {
	defer close(m.done)
	// The detector looks three times per timeout window.
	tick := time.NewTicker(m.cfg.HeartbeatTimeout / 3)
	defer tick.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-m.ep.Recv():
			for {
				msg, ok := m.ep.Next()
				if !ok {
					break
				}
				m.handle(msg)
			}
		case <-tick.C:
			m.checkOnce()
		}
	}
}

func (m *Manager) handle(msg transport.Message) {
	switch p := msg.Payload.(type) {
	case wire.Heartbeat:
		m.mu.Lock()
		var rejoined transport.Addr
		if mem, ok := m.members[p.From]; ok {
			mem.lastBeat = time.Now()
			mem.everBeat = true
			if mem.failed {
				// A heartbeat from a failed member means the process is
				// back (or a standby adopted its address): clear the mark
				// and realign the cluster behind a rejoin barrier. The
				// barrier is what makes the rejoin safe: the survivors'
				// FIFO sequence counters kept advancing while the member
				// was down, so without a fresh epoch a reborn shard would
				// wait forever for sequence numbers that already passed.
				mem.failed = false
				rejoined = mem.addr
			}
		}
		m.mu.Unlock()
		if rejoined != "" {
			m.goReconfigure(rejoined, false)
		}
	case wire.EpochAck:
		select {
		case m.acks <- p:
		default: // barrier gone; drop
		}
	case wire.EpochQuery:
		m.mu.Lock()
		info := wire.EpochInfo{ID: p.ID, Epoch: m.epoch}
		for _, mem := range m.members {
			if mem.failed {
				info.Failed = append(info.Failed, mem.addr)
			}
		}
		// A Boot query from a member we have seen alive means the
		// process crashed and came back inside the failure detector's
		// window: no death was ever declared, but its FIFO streams are
		// reset all the same. Treat it exactly like a heartbeat from a
		// failed member — realign behind a rejoin barrier.
		var rebooted transport.Addr
		if p.Boot {
			if mem, ok := m.members[p.From]; ok && mem.everBeat {
				mem.failed = false
				mem.lastBeat = time.Now()
				rebooted = mem.addr
			}
		}
		m.mu.Unlock()
		to := p.From
		if to == "" {
			to = msg.From
		}
		m.ep.Send(to, info)
		if rebooted != "" {
			m.goReconfigure(rebooted, false)
		}
	}
}

func (m *Manager) checkOnce() {
	if m.recovering.Load() {
		return
	}
	m.mu.Lock()
	var dead *member
	now := time.Now()
	for _, mem := range m.members {
		if mem.failed {
			continue
		}
		if now.Sub(mem.lastBeat) > m.cfg.HeartbeatTimeout {
			dead = mem
			break
		}
	}
	m.mu.Unlock()
	if dead != nil {
		m.goReconfigure(dead.addr, true)
	}
}

// goReconfigure reconfigures around addr off the run loop (the barrier
// needs the loop free to deliver acks) unless one is already in flight.
func (m *Manager) goReconfigure(addr transport.Addr, asDead bool) {
	if !m.recovering.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer m.recovering.Store(false)
		if err := m.reconfigure(addr, asDead); err != nil {
			log.Printf("cluster: reconfigure around %s (dead=%v): %v", addr, asDead, err)
		}
	}()
}

// Recover runs the full reconfiguration for the (presumed dead) server at
// addr: Paxos-logged epoch bump, cluster-wide barrier, restart (or, for a
// member in another process, a failure mark its standby observes). Safe to
// call manually (tests) or from the detector.
func (m *Manager) Recover(addr transport.Addr) error {
	return m.reconfigure(addr, true)
}

// reconfigure moves the cluster to a new epoch around addr. asDead is a
// recovery. Otherwise it is a rejoin, welcoming a previously failed member
// back: the member participates in the barrier (it is alive again) and is
// not re-marked failed; the fresh epoch resets every FIFO stream, so the
// rejoined server and the survivors agree on sequence numbering, and
// shards pull any committed-but-unforwarded writes from the backing store
// behind the barrier.
func (m *Manager) reconfigure(addr transport.Addr, asDead bool) error {
	if m.cfg.ReconfigLock != nil {
		m.cfg.ReconfigLock.Lock()
		defer m.cfg.ReconfigLock.Unlock()
	}
	m.mu.Lock()
	dead, ok := m.members[addr]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("cluster: unknown member %s", addr)
	}
	newEpoch := m.epoch + 1
	var gks, others []*member
	for _, mem := range m.members {
		if (asDead && mem == dead) || mem.failed {
			continue
		}
		if mem.isGK {
			gks = append(gks, mem)
		} else {
			others = append(others, mem)
		}
	}
	m.mu.Unlock()

	// 1. Commit the epoch bump to the replicated configuration log. A
	// concurrent manager may have decided bumps we haven't observed;
	// adopt them so our epoch lands strictly above everything decided.
	if _, err := m.log.Append(encodeBump(EpochBump{Epoch: newEpoch, Failed: addr})); err != nil {
		return fmt.Errorf("cluster: config log: %w", err)
	}
	if decided := m.maxDecidedEpoch(); decided > newEpoch {
		// Our bump landed, but history holds higher epochs from a
		// concurrent reconfiguration; re-propose above them so the
		// barrier below moves the cluster to the true maximum.
		for decided > newEpoch {
			newEpoch = decided + 1
			if _, err := m.log.Append(encodeBump(EpochBump{Epoch: newEpoch, Failed: addr})); err != nil {
				return fmt.Errorf("cluster: config log: %w", err)
			}
			decided = m.maxDecidedEpoch()
		}
	}

	// 2. Barrier. Gatekeepers pause issuance first, so no new old-epoch
	// traffic enters the system; shards then drain and reset.
	m.barrierPhase(gks, newEpoch, wire.EpochPhasePause)
	m.barrierPhase(others, newEpoch, wire.EpochPhaseEnter)

	// 3. Restart the failed server, still inside the pause: when the
	// gatekeepers resume, its address is served again. Without a restart
	// callback it stays marked failed until a standby (or the restarted
	// process itself) heartbeats, which triggers a rejoin barrier.
	reborn := asDead && dead.restart != nil
	if reborn {
		dead.restart(newEpoch)
	}

	// Gatekeepers enter the new epoch and resume on it.
	m.barrierPhase(gks, newEpoch, wire.EpochPhaseEnter)

	m.mu.Lock()
	m.epoch = newEpoch
	dead.failed = asDead && !reborn
	if !dead.failed {
		// Reborn, or rejoined: alive and just past the barrier.
		dead.lastBeat = time.Now()
	}
	m.recoveries++
	m.mu.Unlock()

	m.watchMu.Lock()
	watchers := append([]func(uint64, transport.Addr){}, m.watchers...)
	m.watchMu.Unlock()
	for _, fn := range watchers {
		fn(newEpoch, addr)
	}
	return nil
}

// barrierPhase sends one barrier step to every member in the slice and
// waits, bounded, for their acks.
func (m *Manager) barrierPhase(members []*member, epoch uint64, phase uint8) {
	want := make(map[transport.Addr]bool, len(members))
	for _, mem := range members {
		m.ep.Send(mem.addr, wire.EpochChange{Epoch: epoch, Phase: phase, From: Addr})
		want[mem.addr] = true
	}
	deadline := time.NewTimer(m.cfg.BarrierTimeout)
	defer deadline.Stop()
	for len(want) > 0 {
		select {
		case ack := <-m.acks:
			if ack.Epoch == epoch && ack.Phase == phase {
				delete(want, ack.From)
			}
		case <-deadline.C:
			// A member died mid-barrier; the detector will catch it on
			// the next beat. Proceeding is safe: the new epoch's traffic
			// is gated by the paused gatekeepers, not by this ack.
			return
		case <-m.stop:
			return
		}
	}
}
