// Package hdfs simulates the Hadoop Distributed File System used as the
// platform's cheap background store (§4 of the paper): a namenode holding
// the namespace and block map, datanodes holding replicated fixed-size
// blocks, block-granular reads with locality information for the
// map-reduce scheduler, and replica failover when a datanode dies.
package hdfs

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"sync"

	"hana/internal/faults"
)

// BlockID identifies one block cluster-wide.
type BlockID int64

// BlockInfo is the namenode's record of one block.
type BlockInfo struct {
	ID       BlockID
	Len      int
	Replicas []int // datanode ids holding the block
}

// FileInfo is the namenode's record of one file.
type FileInfo struct {
	Path   string
	Size   int64
	Blocks []BlockInfo
	data   string // the file as written; each block is a substring of it
}

// dataNode stores block payloads. Blocks are never written again, so a
// block's replicas share one immutable copy, a substring of its file's.
type dataNode struct {
	id     int
	mu     sync.RWMutex
	blocks map[BlockID]string
	alive  bool
}

// Cluster is one HDFS instance: a namenode plus datanodes.
type Cluster struct {
	mu        sync.RWMutex
	blockSize int
	replicas  int
	nodes     []*dataNode
	files     map[string]*FileInfo
	dirs      map[string]bool
	nextBlock BlockID
	nextNode  int
	inj       *faults.Injector

	// Stats
	BytesWritten int64
	BytesRead    int64
}

// SetInjector routes cluster IO through a fault injector: writes consult
// the "hdfs.write" site and block reads "hdfs.read". A nil injector
// disables injection.
func (c *Cluster) SetInjector(inj *faults.Injector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inj = inj
}

func (c *Cluster) injector() *faults.Injector {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.inj
}

// Option configures a cluster.
type Option func(*Cluster)

// WithBlockSize sets the block size in bytes (default 4 MiB).
func WithBlockSize(n int) Option { return func(c *Cluster) { c.blockSize = n } }

// WithReplication sets the replication factor (default 3, capped at the
// node count).
func WithReplication(n int) Option { return func(c *Cluster) { c.replicas = n } }

// NewCluster starts a cluster with the given number of datanodes.
func NewCluster(nodes int, opts ...Option) *Cluster {
	if nodes < 1 {
		nodes = 1
	}
	c := &Cluster{
		blockSize: 4 << 20,
		replicas:  3,
		files:     map[string]*FileInfo{},
		dirs:      map[string]bool{"/": true},
	}
	for i := 0; i < nodes; i++ {
		c.nodes = append(c.nodes, &dataNode{id: i, blocks: map[BlockID]string{}, alive: true})
	}
	for _, o := range opts {
		o(c)
	}
	if c.replicas > nodes {
		c.replicas = nodes
	}
	return c
}

// NumNodes returns the datanode count.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

func clean(p string) string {
	p = path.Clean("/" + p)
	return p
}

// MkdirAll creates a directory and its parents.
func (c *Cluster) MkdirAll(dir string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.mkdirLocked(clean(dir))
}

func (c *Cluster) mkdirLocked(dir string) {
	for dir != "/" {
		c.dirs[dir] = true
		dir = path.Dir(dir)
	}
}

// WriteFile stores a file, splitting it into replicated blocks. An
// existing file at the path is replaced.
func (c *Cluster) WriteFile(p string, data []byte) error {
	if err := c.injector().Check("hdfs.write"); err != nil {
		return err
	}
	p = clean(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dirs[p] {
		return fmt.Errorf("hdfs: %s is a directory", p)
	}
	if old, ok := c.files[p]; ok {
		c.removeBlocksLocked(old)
	}
	fi := &FileInfo{Path: p, Size: int64(len(data)), data: string(data)}
	for off := 0; off < len(data) || (len(data) == 0 && off == 0); off += c.blockSize {
		end := off + c.blockSize
		if end > len(data) {
			end = len(data)
		}
		chunk := fi.data[off:end]
		bi := BlockInfo{ID: c.nextBlock, Len: len(chunk)}
		c.nextBlock++
		// Round-robin placement with replication.
		placed := 0
		for try := 0; try < len(c.nodes) && placed < c.replicas; try++ {
			n := c.nodes[(c.nextNode+try)%len(c.nodes)]
			if !n.alive {
				continue
			}
			n.mu.Lock()
			n.blocks[bi.ID] = chunk
			n.mu.Unlock()
			bi.Replicas = append(bi.Replicas, n.id)
			placed++
		}
		c.nextNode = (c.nextNode + 1) % len(c.nodes)
		if placed == 0 {
			// Dead nodes may be revived, so placement failure is retryable.
			return faults.Transient(fmt.Errorf("hdfs: no alive datanodes"))
		}
		fi.Blocks = append(fi.Blocks, bi)
		c.BytesWritten += int64(len(chunk))
		if len(data) == 0 {
			break
		}
	}
	c.files[p] = fi
	c.mkdirLocked(path.Dir(p))
	return nil
}

// ReadFile reads a whole file, failing over across replicas.
func (c *Cluster) ReadFile(p string) ([]byte, error) {
	p = clean(p)
	c.mu.RLock()
	fi, ok := c.files[p]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("hdfs: file %s not found", p)
	}
	s, err := c.ReadString(fi, c.ReadBlock)
	if err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// ReadString reads a whole file as one string without copying it. Each
// block goes through read (ReadBlock, or a retry around it) only for its
// replica failover, faults and BytesRead; what read returns is dropped,
// since the blocks are substrings of the file's one string, which is
// returned.
func (c *Cluster) ReadString(fi *FileInfo, read func(BlockInfo) (string, error)) (string, error) {
	for _, b := range fi.Blocks {
		if _, err := read(b); err != nil {
			return "", err
		}
	}
	return fi.data, nil
}

// ReadBlock reads one block from any alive replica.
func (c *Cluster) ReadBlock(b BlockInfo) (string, error) {
	if err := c.injector().Check("hdfs.read"); err != nil {
		return "", err
	}
	for _, nid := range b.Replicas {
		n := c.nodes[nid]
		n.mu.RLock()
		alive := n.alive
		data, ok := n.blocks[b.ID]
		n.mu.RUnlock()
		if alive && ok {
			c.mu.Lock()
			c.BytesRead += int64(len(data))
			c.mu.Unlock()
			return data, nil
		}
	}
	// Every replica is on a dead node; reviving any of them makes the
	// block readable again, so the failure is classified transient.
	return "", faults.Transient(fmt.Errorf("hdfs: block %d unavailable (all replicas dead)", b.ID))
}

// Stat returns file metadata.
func (c *Cluster) Stat(p string) (*FileInfo, error) {
	p = clean(p)
	c.mu.RLock()
	defer c.mu.RUnlock()
	fi, ok := c.files[p]
	if !ok {
		if c.dirs[p] {
			return &FileInfo{Path: p}, nil
		}
		return nil, fmt.Errorf("hdfs: %s not found", p)
	}
	cp := *fi
	return &cp, nil
}

// Exists reports whether a file or directory exists.
func (c *Cluster) Exists(p string) bool {
	p = clean(p)
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, f := c.files[p]
	return f || c.dirs[p]
}

// List returns the files directly under a directory, sorted by path.
func (c *Cluster) List(dir string) []*FileInfo {
	dir = clean(dir)
	prefix := dir
	if prefix != "/" {
		prefix += "/"
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*FileInfo
	for p, fi := range c.files {
		if strings.HasPrefix(p, prefix) && !strings.Contains(p[len(prefix):], "/") {
			cp := *fi
			out = append(out, &cp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// Remove deletes a file or directory tree.
func (c *Cluster) Remove(p string) error {
	p = clean(p)
	c.mu.Lock()
	defer c.mu.Unlock()
	if fi, ok := c.files[p]; ok {
		c.removeBlocksLocked(fi)
		delete(c.files, p)
		return nil
	}
	if c.dirs[p] {
		prefix := p + "/"
		for fp, fi := range c.files {
			if strings.HasPrefix(fp, prefix) {
				c.removeBlocksLocked(fi)
				delete(c.files, fp)
			}
		}
		for d := range c.dirs {
			if d == p || strings.HasPrefix(d, prefix) {
				delete(c.dirs, d)
			}
		}
		return nil
	}
	return fmt.Errorf("hdfs: %s not found", p)
}

func (c *Cluster) removeBlocksLocked(fi *FileInfo) {
	for _, b := range fi.Blocks {
		for _, nid := range b.Replicas {
			n := c.nodes[nid]
			n.mu.Lock()
			delete(n.blocks, b.ID)
			n.mu.Unlock()
		}
	}
}

// Rename moves a file.
func (c *Cluster) Rename(from, to string) error {
	from, to = clean(from), clean(to)
	c.mu.Lock()
	defer c.mu.Unlock()
	fi, ok := c.files[from]
	if !ok {
		return fmt.Errorf("hdfs: %s not found", from)
	}
	if _, exists := c.files[to]; exists {
		return fmt.Errorf("hdfs: %s already exists", to)
	}
	delete(c.files, from)
	fi.Path = to
	c.files[to] = fi
	c.mkdirLocked(path.Dir(to))
	return nil
}

// KillNode marks a datanode dead (failure injection).
func (c *Cluster) KillNode(id int) {
	n := c.nodes[id]
	n.mu.Lock()
	n.alive = false
	n.mu.Unlock()
}

// ReviveNode brings a datanode back (its blocks are intact).
func (c *Cluster) ReviveNode(id int) {
	n := c.nodes[id]
	n.mu.Lock()
	n.alive = true
	n.mu.Unlock()
}

// TotalUsed reports bytes stored across datanodes (including replicas).
func (c *Cluster) TotalUsed() int64 {
	var total int64
	for _, n := range c.nodes {
		n.mu.RLock()
		for _, b := range n.blocks {
			total += int64(len(b))
		}
		n.mu.RUnlock()
	}
	return total
}

// AppendFile appends data to a file (creating it if missing). HDFS appends
// are block-aligned here for simplicity.
func (c *Cluster) AppendFile(p string, data []byte) error {
	p = clean(p)
	c.mu.RLock()
	_, ok := c.files[p]
	c.mu.RUnlock()
	if !ok {
		return c.WriteFile(p, data)
	}
	old, err := c.ReadFile(p)
	if err != nil {
		return err
	}
	return c.WriteFile(p, append(old, data...))
}
