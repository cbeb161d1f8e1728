// Package fsim is the file-system substrate: a disk with positioning and
// transfer costs, an inode-style file system with synthetic-content support
// for multi-gigabyte trace workloads, and the metadata block cache that
// remains in the "old" buffer cache under IO-Lite (§4.2).
package fsim

import (
	"iolite/internal/sim"
)

// Disk models one disk: a FIFO arm (positioning + media transfer per
// request). Requests from concurrent processes queue in arrival order.
type Disk struct {
	eng   *sim.Engine
	costs *sim.CostModel
	arm   *sim.Resource
	stats DiskStats
}

// DiskStats are a disk's request and byte counters.
type DiskStats struct {
	Reads, Writes           int64
	BytesRead, BytesWritten int64
}

// NewDisk creates a disk using the cost model's seek and transfer rates.
func NewDisk(eng *sim.Engine, costs *sim.CostModel) *Disk {
	return &Disk{eng: eng, costs: costs, arm: sim.NewResource(eng, "disk")}
}

// Read blocks p for one positioning delay plus the media transfer of n
// bytes, behind any queued requests.
func (d *Disk) Read(p *sim.Proc, n int) {
	d.stats.Reads++
	d.stats.BytesRead += int64(n)
	d.arm.Use(p, d.costs.DiskSeek+d.costs.DiskTransfer(n))
}

// WriteAsync queues a write of n bytes without blocking the caller
// (write-behind). The arm time is still consumed, delaying later reads.
func (d *Disk) WriteAsync(n int) {
	d.stats.Writes++
	d.stats.BytesWritten += int64(n)
	d.arm.Charge(d.costs.DiskSeek + d.costs.DiskTransfer(n))
}

// Stats returns the request and byte counters.
func (d *Disk) Stats() DiskStats { return d.stats }

// Utilization reports the disk arm's busy fraction.
func (d *Disk) Utilization() float64 { return d.arm.Utilization() }

// ResetMeters clears the counters and the utilization accounting.
func (d *Disk) ResetMeters() {
	d.stats = DiskStats{}
	d.arm.ResetMeters()
}
