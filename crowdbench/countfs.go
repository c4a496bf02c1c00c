package main

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"crowdscope/internal/vfs"
)

// countFS is a vfs.FS that counts what the live store writes: write
// calls and bytes, split into WAL and checkpoint files, plus fsyncs and
// the time they take. It changes nothing about the I/O itself.
type countFS struct {
	vfs.FS
	writes    atomic.Int64
	walBytes  atomic.Int64
	ckptBytes atomic.Int64
	fsyncs    atomic.Int64
	fsyncNs   atomic.Int64
	ckpts     atomic.Int64 // checkpoint snapshots begun
}

// ioCounts is a snapshot of a countFS's counters.
type ioCounts struct {
	Writes, WALBytes, CkptBytes, Fsyncs, Ckpts int64
	Fsync                                      time.Duration
}

func newCountFS() *countFS { return &countFS{FS: vfs.OS{}} }

func (c *countFS) counts() ioCounts {
	return ioCounts{
		Writes:    c.writes.Load(),
		WALBytes:  c.walBytes.Load(),
		CkptBytes: c.ckptBytes.Load(),
		Fsyncs:    c.fsyncs.Load(),
		Ckpts:     c.ckpts.Load(),
		Fsync:     time.Duration(c.fsyncNs.Load()),
	}
}

// sub returns the counts accumulated since base.
func (a ioCounts) sub(base ioCounts) ioCounts {
	return ioCounts{
		Writes:    a.Writes - base.Writes,
		WALBytes:  a.WALBytes - base.WALBytes,
		CkptBytes: a.CkptBytes - base.CkptBytes,
		Fsyncs:    a.Fsyncs - base.Fsyncs,
		Ckpts:     a.Ckpts - base.Ckpts,
		Fsync:     a.Fsync - base.Fsync,
	}
}

func (c *countFS) wrap(name string, f vfs.File) vfs.File {
	bytes := &c.ckptBytes
	if strings.HasPrefix(filepath.Base(name), "wal-") {
		bytes = &c.walBytes
	}
	return &countFile{File: f, fs: c, bytes: bytes}
}

func (c *countFS) Create(name string) (vfs.File, error) {
	f, err := c.FS.Create(name)
	if err != nil {
		return nil, err
	}
	if strings.HasPrefix(filepath.Base(name), "ckpt-") {
		c.ckpts.Add(1)
	}
	return c.wrap(name, f), nil
}

func (c *countFS) OpenAppend(name string) (vfs.File, error) {
	f, err := c.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return c.wrap(name, f), nil
}

func (c *countFS) SyncDir(dir string) error {
	t := time.Now()
	err := c.FS.SyncDir(dir)
	c.fsyncs.Add(1)
	c.fsyncNs.Add(int64(time.Since(t)))
	return err
}

type countFile struct {
	vfs.File
	fs    *countFS
	bytes *atomic.Int64
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writes.Add(1)
	f.bytes.Add(int64(n))
	return n, err
}

func (f *countFile) Sync() error {
	t := time.Now()
	err := f.File.Sync()
	f.fs.fsyncs.Add(1)
	f.fs.fsyncNs.Add(int64(time.Since(t)))
	return err
}
