package fsatomic

// The FS seam: every persistence path in the repo (plan cache entries,
// search checkpoints, ladder manifests) funnels its filesystem calls
// through this small interface instead of the os package directly. The
// default implementation is the real OS; internal/errfs wraps any FS and
// injects deterministic storage faults (ENOSPC, short writes, sync
// failures, fd exhaustion, rename failures), which is how the chaos
// suites prove that storage failure degrades service instead of
// corrupting state.

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// File is the subset of *os.File the atomic-write protocol needs.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Chmod(mode os.FileMode) error
	Close() error
	Name() string
}

// FS is the filesystem surface persistence goes through. Implementations
// must keep CreateTemp+Rename atomic-replacement semantics: a file
// renamed over a path is observed either wholly old or wholly new.
type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	MkdirAll(path string, perm os.FileMode) error
	Stat(name string) (os.FileInfo, error)
}

// OS is the real filesystem, the default everywhere a Config.FS or
// function parameter is left nil.
var OS FS = osFS{}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Stat(name string) (os.FileInfo, error)        { return os.Stat(name) }

// ErrFDExhausted: the process or system is out of file descriptors
// (EMFILE/ENFILE). Unlike a full disk this clears on its own as other
// descriptors close, so it is classified transient.
var ErrFDExhausted = errors.New("fsatomic: file descriptors exhausted")

// Transient reports whether a storage failure is worth retrying shortly:
// fd exhaustion and short writes clear on their own, while disk-full,
// quota, and corruption persist until an operator intervenes. Serving
// layers use this to pick between retry and degrade.
func Transient(err error) bool {
	return errors.Is(err, ErrFDExhausted) ||
		errors.Is(err, ErrShortWrite) ||
		errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN)
}

// Or returns fsys, defaulting to the real filesystem when nil. Callers
// thread optional FS config fields through this so "zero value" means
// "the real OS".
func Or(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

// WriteFileFS is WriteFile against an arbitrary FS.
func WriteFileFS(fsys FS, path string, data []byte, perm os.FileMode) error {
	fsys = Or(fsys)
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := fsys.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("fsatomic: %w", classify(err))
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("fsatomic: %w", classify(err))
	}
	n, err := f.Write(data)
	if err != nil {
		return cleanup(err)
	}
	if n != len(data) {
		return cleanup(fmt.Errorf("%w: wrote %d of %d bytes", ErrShortWrite, n, len(data)))
	}
	if TestHookWriteErr != nil {
		if err := TestHookWriteErr(path); err != nil {
			return cleanup(err)
		}
	}
	// Flush to stable storage before the rename publishes the file, so a
	// power loss cannot leave a renamed-but-empty checkpoint behind.
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Chmod(perm); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("fsatomic: %w", classify(err))
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("fsatomic: %w", classify(err))
	}
	return nil
}

// WriteSealedFS is WriteSealed against an arbitrary FS.
func WriteSealedFS(fsys FS, path, magic string, version int, payload []byte, perm os.FileMode) error {
	env, err := seal(magic, version, payload)
	if err != nil {
		return err
	}
	return WriteFileFS(fsys, path, env, perm)
}

// ReadSealedFS is ReadSealed against an arbitrary FS.
func ReadSealedFS(fsys FS, path, magic string, version int) ([]byte, error) {
	data, err := Or(fsys).ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fsatomic: %w", classify(err))
	}
	return unseal(path, magic, version, data)
}

// IsTemp reports whether a directory entry name is an atomic-write
// temporary (the CreateTemp pattern used by WriteFileFS).
func IsTemp(name string) bool {
	return strings.Contains(name, ".tmp-")
}

// SweepTemps removes orphaned atomic-write temporaries from dir. A
// crashed or fault-interrupted writer can leave its temp file behind
// when even the removal fails (full disk, SIGKILL between write and
// cleanup); persistence directories sweep on open so the debris is
// bounded by one crash, not accumulated forever. Returns how many
// temporaries were removed; sweep errors are best-effort and ignored —
// the next open tries again.
func SweepTemps(fsys FS, dir string) int {
	fsys = Or(fsys)
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range ents {
		if e.IsDir() || !IsTemp(e.Name()) {
			continue
		}
		if fsys.Remove(filepath.Join(dir, e.Name())) == nil {
			n++
		}
	}
	return n
}

// QuarantineDir is the subdirectory of a persistence directory that
// untrusted files are moved into.
const QuarantineDir = "quarantine"

// Quarantine moves dir/name into dir/quarantine (created if absent) for
// an operator to inspect, keeping its name — suffixed .1, .2, ... on
// collision — and returns the destination. Moving rather than skipping
// in place keeps every later open from re-reading a file known to be
// bad. On error the file is where it was; what to do with it is the
// caller's policy.
func Quarantine(fsys FS, dir, name string) (string, error) {
	fsys = Or(fsys)
	qdir := filepath.Join(dir, QuarantineDir)
	if err := fsys.MkdirAll(qdir, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(qdir, name)
	for i := 1; ; i++ {
		if _, err := fsys.Stat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(qdir, fmt.Sprintf("%s.%d", name, i))
	}
	if err := fsys.Rename(filepath.Join(dir, name), dst); err != nil {
		return "", err
	}
	return dst, nil
}

// Prune bounds the regular files of dir that match (nil matches all):
// when maxAge > 0 every one last modified more than maxAge ago is
// removed, and beyond max (when max > 0) the oldest by (mtime, name) go
// too. It returns the names it removed and the first removal error; a
// file it could not remove stays, to be tried again next time.
func Prune(fsys FS, dir string, match func(name string) bool, max int, maxAge time.Duration) (removed []string, err error) {
	fsys = Or(fsys)
	now := time.Now()
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type file struct {
		name string
		mod  time.Time
	}
	var files []file
	for _, e := range ents {
		if e.IsDir() || (match != nil && !match(e.Name())) {
			continue
		}
		if info, ierr := e.Info(); ierr == nil { // else gone since ReadDir
			files = append(files, file{e.Name(), info.ModTime()})
		}
	}
	slices.SortFunc(files, func(a, b file) int {
		return cmp.Or(a.mod.Compare(b.mod), strings.Compare(a.name, b.name))
	})
	for i, f := range files {
		if (max <= 0 || i >= len(files)-max) && (maxAge <= 0 || now.Sub(f.mod) <= maxAge) {
			continue
		}
		if rerr := fsys.Remove(filepath.Join(dir, f.name)); rerr != nil {
			err = cmp.Or(err, rerr)
		} else {
			removed = append(removed, f.name)
		}
	}
	return removed, err
}
