//! In-memory file descriptors and files.

use std::collections::BTreeMap;
use std::fmt;

/// File-descriptor errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsError {
    /// The descriptor is not open.
    BadFd(u64),
    /// The descriptor does not support the attempted operation.
    Unsupported(u64),
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::BadFd(fd) => write!(f, "bad file descriptor {fd}"),
            FsError::Unsupported(fd) => {
                write!(f, "operation not supported on descriptor {fd}")
            }
        }
    }
}

impl std::error::Error for FsError {}

#[derive(Clone, Debug)]
struct OpenFile {
    name: String,
    pos: usize,
}

/// A process's file-descriptor table over an in-memory filesystem.
///
/// Layout mirrors Unix conventions: fd 0 is stdin (a preset input buffer),
/// fd 1 is stdout, fd 2 is stderr (merged into stdout), and `open` hands
/// out descriptors from 3. The whole table is `Clone`, so `fork`
/// duplicates it — including per-descriptor file positions.
#[derive(Clone, Debug, Default)]
pub struct FdTable {
    stdin: Vec<u8>,
    stdin_pos: usize,
    stdout: Vec<u8>,
    files: BTreeMap<String, Vec<u8>>,
    open: BTreeMap<u64, OpenFile>,
    next_fd: u64,
}

impl FdTable {
    /// Creates a table with empty stdin/stdout and no files.
    pub fn new() -> FdTable {
        FdTable {
            next_fd: 3,
            ..FdTable::default()
        }
    }

    /// Replaces the stdin buffer (and rewinds it).
    pub fn set_stdin(&mut self, data: Vec<u8>) {
        self.stdin = data;
        self.stdin_pos = 0;
    }

    /// Everything the process has written to stdout/stderr so far.
    pub fn stdout(&self) -> &[u8] {
        &self.stdout
    }

    /// Pre-populates a named file (test and workload setup).
    #[cfg(test)]
    pub(crate) fn put_file(&mut self, name: &str, data: Vec<u8>) {
        self.files.insert(name.to_owned(), data);
    }

    /// The current contents of a named file, if it exists.
    #[cfg(test)]
    pub(crate) fn file(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(Vec::as_slice)
    }

    /// Opens (creating if necessary) the named file; returns the new fd.
    pub fn open(&mut self, name: &str) -> u64 {
        self.files.entry(name.to_owned()).or_default();
        let fd = self.next_fd;
        self.next_fd += 1;
        self.open.insert(
            fd,
            OpenFile {
                name: name.to_owned(),
                pos: 0,
            },
        );
        fd
    }

    /// Closes a descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::BadFd`] for unknown or standard descriptors.
    pub fn close(&mut self, fd: u64) -> Result<(), FsError> {
        self.open.remove(&fd).map(|_| ()).ok_or(FsError::BadFd(fd))
    }

    /// Reads up to `len` bytes from a descriptor, advancing its position.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::BadFd`] for unknown descriptors or
    /// [`FsError::Unsupported`] when reading stdout.
    pub fn read(&mut self, fd: u64, len: usize) -> Result<Vec<u8>, FsError> {
        match fd {
            0 => {
                let available = self.stdin.len().saturating_sub(self.stdin_pos);
                let n = len.min(available);
                let data = self.stdin[self.stdin_pos..self.stdin_pos + n].to_vec();
                self.stdin_pos += n;
                Ok(data)
            }
            1 | 2 => Err(FsError::Unsupported(fd)),
            _ => {
                let handle = self.open.get_mut(&fd).ok_or(FsError::BadFd(fd))?;
                let contents = self
                    .files
                    .get(&handle.name)
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                let available = contents.len().saturating_sub(handle.pos);
                let n = len.min(available);
                let data = contents[handle.pos..handle.pos + n].to_vec();
                handle.pos += n;
                Ok(data)
            }
        }
    }

    /// Writes bytes to a descriptor; returns the count written.
    ///
    /// # Errors
    ///
    /// Returns [`FsError::BadFd`] for unknown descriptors or
    /// [`FsError::Unsupported`] when writing stdin.
    pub fn write(&mut self, fd: u64, data: &[u8]) -> Result<usize, FsError> {
        match fd {
            0 => Err(FsError::Unsupported(fd)),
            1 | 2 => {
                self.stdout.extend_from_slice(data);
                Ok(data.len())
            }
            _ => {
                let handle = self.open.get_mut(&fd).ok_or(FsError::BadFd(fd))?;
                let contents = self.files.entry(handle.name.clone()).or_default();
                // Writes go at the handle position, extending as needed.
                if handle.pos > contents.len() {
                    contents.resize(handle.pos, 0);
                }
                let end = handle.pos + data.len();
                if end > contents.len() {
                    contents.resize(end, 0);
                }
                contents[handle.pos..end].copy_from_slice(data);
                handle.pos = end;
                Ok(data.len())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stdin_reads_consume() {
        let mut fds = FdTable::new();
        fds.set_stdin(b"hello".to_vec());
        assert_eq!(fds.read(0, 3).expect("read"), b"hel");
        assert_eq!(fds.read(0, 10).expect("read"), b"lo");
        assert_eq!(fds.read(0, 10).expect("read"), b"");
    }

    #[test]
    fn stdout_accumulates() {
        let mut fds = FdTable::new();
        fds.write(1, b"a").expect("write");
        fds.write(2, b"b").expect("write");
        assert_eq!(fds.stdout(), b"ab");
    }

    #[test]
    fn file_positions_are_per_descriptor() {
        let mut fds = FdTable::new();
        fds.put_file("x", b"0123456789".to_vec());
        let fd1 = fds.open("x");
        let fd2 = fds.open("x");
        assert_eq!(fds.read(fd1, 4).expect("read"), b"0123");
        assert_eq!(fds.read(fd2, 2).expect("read"), b"01");
        assert_eq!(fds.read(fd1, 2).expect("read"), b"45");
    }

    #[test]
    fn write_extends_file() {
        let mut fds = FdTable::new();
        let fd = fds.open("new");
        fds.write(fd, b"abc").expect("write");
        fds.write(fd, b"def").expect("write");
        assert_eq!(fds.file("new"), Some(&b"abcdef"[..]));
    }

    #[test]
    fn bad_descriptor_errors() {
        let mut fds = FdTable::new();
        assert_eq!(fds.read(42, 1), Err(FsError::BadFd(42)));
        assert_eq!(fds.write(0, b"x"), Err(FsError::Unsupported(0)));
        assert_eq!(fds.read(1, 1), Err(FsError::Unsupported(1)));
        assert_eq!(fds.close(3), Err(FsError::BadFd(3)));
    }

    #[test]
    fn close_then_use_is_an_error() {
        let mut fds = FdTable::new();
        let fd = fds.open("f");
        fds.close(fd).expect("close");
        assert_eq!(fds.read(fd, 1), Err(FsError::BadFd(fd)));
    }

    #[test]
    fn clone_duplicates_positions() {
        let mut fds = FdTable::new();
        fds.put_file("x", b"0123".to_vec());
        let fd = fds.open("x");
        fds.read(fd, 2).expect("read");
        let mut forked = fds.clone();
        assert_eq!(forked.read(fd, 2).expect("read"), b"23");
        assert_eq!(fds.read(fd, 2).expect("read"), b"23");
    }
}
