// Package disk is a stand-in for the engine's disk backend with the
// shapes the analyzers match on: the FileVolume open→close lifecycle
// and the durability surface.
package disk

// PageNum indexes a page within a volume.
type PageNum int64

// FileOptions configures a file volume.
type FileOptions struct {
	Direct      bool
	CrashShadow bool
}

// FileVolume is the stand-in file-backed volume.
type FileVolume struct{}

// Close releases the backing descriptor.
func (v *FileVolume) Close() error { return nil }

// WritePages writes pages (here: a no-op use of the volume).
func (v *FileVolume) WritePages(start PageNum, n int, data []byte) error { return nil }

// CreateFileVolume creates a file-backed volume.
func CreateFileVolume(path string, pageSize int, pages PageNum, opts FileOptions) (*FileVolume, error) {
	return &FileVolume{}, nil
}

// OpenFileVolume opens an existing file-backed volume.
func OpenFileVolume(path string, opts FileOptions) (*FileVolume, error) {
	return &FileVolume{}, nil
}

// Force makes n pages starting at start durable.
func (v *FileVolume) Force(start PageNum, n int) error { return nil }

// ForceAll makes every written page durable.
func (v *FileVolume) ForceAll() error { return nil }

// ForceAllExcept makes every written page durable except those in skip.
func (v *FileVolume) ForceAllExcept(skip map[PageNum]bool) error { return nil }

// Device is the stand-in backend interface with the durability surface
// forcedom matches on.
type Device interface {
	WritePages(start PageNum, n int, data []byte) error
	Force(start PageNum, n int) error
	ForceAll() error
	ForceAllExcept(skip map[PageNum]bool) error
}

// SyncDir fsyncs a directory, making its entries durable.
func SyncDir(dir string) error { return nil }
