//! The header every result carries: host, code identity and run
//! parameters. A result is never written without a complete header.

use std::path::{Path, PathBuf};

pub struct Header {
    nproc: usize,
    kernel: String,
    /// Git commit when run from a git checkout, otherwise an FNV-1a hash
    /// of the source tree (`src-<hex>`), so results always name the code.
    git_rev: String,
    seed: u64,
    workload: String,
    trace: bool,
    profile: &'static str,
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

fn read_trimmed(path: &Path) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The commit `.git/HEAD` points at, read without running git.
fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = read_trimmed(&git.join("HEAD"))?;
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head);
    };
    if let Some(rev) = read_trimmed(&git.join(reference)) {
        return Some(rev);
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (rev, name) = line.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            out.push(path);
        }
    }
}

/// Hash of the program's sources: every `.rs` and `.toml` file under
/// `crates/` and `src/`, plus the root manifest and lock file.
fn source_hash(root: &Path) -> Option<String> {
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    collect_files(&root.join("src"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let rel = f.strip_prefix(root).ok()?;
        fnv1a(&mut hash, rel.to_string_lossy().as_bytes());
        fnv1a(&mut hash, &std::fs::read(f).ok()?);
    }
    Some(format!("src-{hash:016x}"))
}

impl Header {
    pub fn collect(workload: &str, seed: u64, trace: bool) -> Result<Header, String> {
        let root = repo_root();
        let header = Header {
            nproc: std::thread::available_parallelism().map_or(0, usize::from),
            kernel: read_trimmed(Path::new("/proc/sys/kernel/osrelease")).unwrap_or_default(),
            git_rev: git_head(&root)
                .or_else(|| source_hash(&root))
                .unwrap_or_default(),
            seed,
            workload: workload.to_string(),
            trace,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
        };
        header.check()?;
        Ok(header)
    }

    fn check(&self) -> Result<(), String> {
        let missing = [
            (self.nproc == 0, "nproc"),
            (self.kernel.is_empty(), "kernel"),
            (self.git_rev.is_empty(), "git rev"),
            (self.workload.is_empty(), "workload"),
        ];
        match missing.iter().find(|(absent, _)| *absent) {
            Some((_, what)) => Err(format!("result header has no {what}")),
            None => Ok(()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"kernel\": \"{}\", \"git_rev\": \"{}\", \"seed\": {}, \
             \"workload\": \"{}\", \"trace\": {}, \"profile\": \"{}\"}}",
            self.nproc,
            self.kernel,
            self.git_rev,
            self.seed,
            self.workload,
            u8::from(self.trace),
            self.profile
        )
    }
}

/// Writes `{"header": ..., "result": ...}` to `path`, refusing when the
/// header is incomplete.
pub fn write_result(header: &Header, result: &str, path: &Path) -> Result<(), String> {
    header.check()?;
    let body = format!(
        "{{\"header\": {}, \"result\": {result}}}\n",
        header.to_json()
    );
    std::fs::write(path, body).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn complete() -> Header {
        Header {
            nproc: 2,
            kernel: "6.1.0".into(),
            git_rev: "abc123".into(),
            seed: 7,
            workload: "hl_pairwise".into(),
            trace: false,
            profile: "release",
        }
    }

    #[test]
    fn a_result_without_its_header_is_refused() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("header-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("r.json");
        let mut h = complete();
        h.git_rev.clear();
        assert!(write_result(&h, "{}", &path).is_err());
        assert!(!path.exists());
        write_result(&complete(), "{}", &path).expect("complete header");
        assert!(std::fs::read_to_string(&path)
            .expect("written")
            .contains("\"git_rev\": \"abc123\""));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }
}
