// Package storage simulates the NAND-flash SSD substrate MithriLog sits
// on: a page-addressed store with two access links — the device-internal
// link used by the near-storage accelerator and the external (PCIe) link
// used by the host — with distinct bandwidths, plus a flash access
// latency. The near-storage advantage evaluated in §7 is exactly this
// bandwidth differential (4.8 GB/s internal vs 3.1 GB/s PCIe on the
// prototype, Table 3), so the simulator models it directly: every read is
// tagged with the link it crosses and the device accumulates per-link
// traffic, from which simulated transfer times are derived.
package storage

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"mithrilog/internal/hwsim"
)

// PageSize is the storage page granularity (4 KiB, §6.1).
const PageSize = 4096

// Link identifies which side of the device a transfer crosses.
type Link int

const (
	// Internal is the device-internal link available to the near-storage
	// accelerator (flash channels behind the device controller).
	Internal Link = iota
	// External is the host-facing PCIe link.
	External
)

// String names the link.
func (l Link) String() string {
	if l == Internal {
		return "internal"
	}
	return "external"
}

// Config sets the simulated device's performance envelope. Zero values
// select the paper's prototype numbers (Table 3).
type Config struct {
	// InternalBandwidth in bytes/second (default 4.8 GB/s).
	InternalBandwidth float64
	// ExternalBandwidth in bytes/second (default 3.1 GB/s).
	ExternalBandwidth float64
	// ReadLatency is the per-access flash latency for dependent
	// (queue-depth-one) reads (default 100µs, the §6.1 figure).
	ReadLatency time.Duration
	// MaxPages caps device capacity; zero means unbounded.
	MaxPages int
	// SegmentPages is the capacity, in data pages, of each append-only
	// segment the engine's SegmentStore seals (default
	// DefaultSegmentPages). The device itself ignores it.
	SegmentPages int
}

func (c Config) withDefaults() Config {
	if c.InternalBandwidth <= 0 {
		c.InternalBandwidth = hwsim.InternalBandwidth
	}
	if c.ExternalBandwidth <= 0 {
		c.ExternalBandwidth = hwsim.ExternalBandwidth
	}
	if c.ReadLatency <= 0 {
		c.ReadLatency = 100 * time.Microsecond
	}
	if c.SegmentPages <= 0 {
		c.SegmentPages = DefaultSegmentPages
	}
	return c
}

// PageID addresses one page.
type PageID uint32

// ErrOutOfRange reports an access to an unallocated page.
var ErrOutOfRange = errors.New("storage: page out of range")

// ErrDeviceFull reports that MaxPages is exhausted.
var ErrDeviceFull = errors.New("storage: device full")

// ErrPageOverflow reports a write larger than a page.
var ErrPageOverflow = errors.New("storage: write exceeds page size")

// LinkStats accumulates traffic on one link.
type LinkStats struct {
	Reads uint64 // page read operations
	Bytes uint64 // bytes transferred
}

// Stats is a snapshot of device activity.
type Stats struct {
	Internal LinkStats
	External LinkStats
	Writes   uint64
	Pages    int
}

// Device is the simulated SSD. All methods are safe for concurrent use.
type Device struct {
	cfg Config

	mu    sync.RWMutex
	pages [][]byte // guarded by mu

	statsMu  sync.Mutex
	internal LinkStats // guarded by statsMu
	external LinkStats // guarded by statsMu
	writes   uint64    // guarded by statsMu

	faultMu   sync.Mutex
	failReads int   // guarded by faultMu
	failErr   error // guarded by faultMu
}

// New creates an empty device.
func New(cfg Config) *Device {
	return &Device{cfg: cfg.withDefaults()}
}

// Config returns the device's (defaulted) configuration.
func (d *Device) Config() Config { return d.cfg }

// NumPages returns the number of allocated pages.
func (d *Device) NumPages() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pages)
}

// Alloc allocates a fresh zero page and returns its ID.
func (d *Device) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.MaxPages > 0 && len(d.pages) >= d.cfg.MaxPages {
		return 0, ErrDeviceFull
	}
	d.pages = append(d.pages, make([]byte, PageSize))
	return PageID(len(d.pages) - 1), nil
}

// Append allocates a page, writes data into it, and returns its ID.
func (d *Device) Append(data []byte) (PageID, error) {
	if len(data) > PageSize {
		return 0, ErrPageOverflow
	}
	id, err := d.Alloc()
	if err != nil {
		return 0, err
	}
	return id, d.Write(id, data)
}

// Write stores data (at most PageSize bytes) into the page; shorter writes
// leave the remainder of the page zeroed.
func (d *Device) Write(id PageID, data []byte) error {
	if len(data) > PageSize {
		return ErrPageOverflow
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if int(id) >= len(d.pages) {
		return ErrOutOfRange
	}
	p := d.pages[id]
	copy(p, data)
	for i := len(data); i < PageSize; i++ {
		p[i] = 0
	}
	d.statsMu.Lock()
	d.writes++
	d.statsMu.Unlock()
	return nil
}

// FailNextReads arms fault injection: the next n reads (Read or View)
// return err instead of data. Used by failure-handling tests; a real
// device surfaces uncorrectable-ECC errors the same way.
func (d *Device) FailNextReads(n int, err error) {
	d.faultMu.Lock()
	d.failReads = n
	d.failErr = err
	d.faultMu.Unlock()
}

// injectFault consumes one armed read fault, if any.
func (d *Device) injectFault() error {
	d.faultMu.Lock()
	defer d.faultMu.Unlock()
	if d.failReads > 0 {
		d.failReads--
		return d.failErr
	}
	return nil
}

// Read copies the page over the given link into buf (which must hold
// PageSize bytes) and accounts the transfer.
func (d *Device) Read(link Link, id PageID, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("storage: read buffer too small (%d < %d)", len(buf), PageSize)
	}
	if err := d.injectFault(); err != nil {
		return err
	}
	d.mu.RLock()
	if int(id) >= len(d.pages) {
		d.mu.RUnlock()
		return ErrOutOfRange
	}
	copy(buf, d.pages[id])
	d.mu.RUnlock()
	d.account(link, 1, PageSize)
	return nil
}

// View returns a read-only view of the page without copying, accounting
// the transfer. The caller must not modify or retain the slice across
// writes; it is the in-simulator analogue of DMA into the accelerator.
func (d *Device) View(link Link, id PageID) ([]byte, error) {
	if err := d.injectFault(); err != nil {
		return nil, err
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.pages) {
		return nil, ErrOutOfRange
	}
	d.account(link, 1, PageSize)
	return d.pages[id], nil
}

// pageView returns the page contents without link accounting. It serves
// segment encoding, a host-side maintenance operation, not simulated
// device traffic.
func (d *Device) pageView(id PageID) ([]byte, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) >= len(d.pages) {
		return nil, ErrOutOfRange
	}
	return d.pages[id], nil
}

func (d *Device) account(link Link, reads, bytes uint64) {
	d.statsMu.Lock()
	if link == Internal {
		d.internal.Reads += reads
		d.internal.Bytes += bytes
	} else {
		d.external.Reads += reads
		d.external.Bytes += bytes
	}
	d.statsMu.Unlock()
}

// Stats snapshots the device counters.
func (d *Device) Stats() Stats {
	// Read the page count before taking statsMu: Write acquires d.mu then
	// statsMu, so calling NumPages (d.mu) under statsMu would invert the
	// lock order and can deadlock against a concurrent Write — metrics
	// scrapes call Stats while ingest is running.
	pages := d.NumPages()
	d.statsMu.Lock()
	defer d.statsMu.Unlock()
	return Stats{
		Internal: d.internal,
		External: d.external,
		Writes:   d.writes,
		Pages:    pages,
	}
}

// ResetStats clears the traffic counters (contents are untouched).
func (d *Device) ResetStats() {
	d.statsMu.Lock()
	d.internal, d.external, d.writes = LinkStats{}, LinkStats{}, 0
	d.statsMu.Unlock()
}

// Bandwidth returns the configured bandwidth of a link in bytes/second.
func (d *Device) Bandwidth(link Link) float64 {
	if link == Internal {
		return d.cfg.InternalBandwidth
	}
	return d.cfg.ExternalBandwidth
}

// TransferTime returns the simulated time to stream the given volume over
// a link at full queue depth (bandwidth-bound).
func (d *Device) TransferTime(link Link, bytes uint64) time.Duration {
	return hwsim.DurationForBytes(bytes, d.Bandwidth(link))
}

// DependentAccessTime returns the simulated time for n serially dependent
// page reads (queue depth one): each pays the full flash latency. This is
// the cost model behind the §6.1 linked-list analysis.
func (d *Device) DependentAccessTime(n uint64) time.Duration {
	return time.Duration(n) * d.cfg.ReadLatency
}

// BatchAccessTime returns the simulated time for n independent page reads
// issued together over a link: one latency to first byte, then
// bandwidth-bound streaming.
func (d *Device) BatchAccessTime(link Link, n uint64) time.Duration {
	if n == 0 {
		return 0
	}
	return d.cfg.ReadLatency + d.TransferTime(link, n*PageSize)
}
