//! Every `Ordering::Relaxed` and `Ordering::SeqCst` in shipped code
//! outside `vkg-sync` says why: a `// relaxed: …` / `// seqcst: …`
//! comment on the operand's own line, or on the lines above it back to
//! where its statement (or struct field, or argument) starts.
//! `Acquire`/`Release` need none — their pairing is the invariant — and
//! `vkg-sync`'s model runtime legitimately sequentializes everything.

use std::path::{Path, PathBuf};

fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("source dir").flatten() {
        let path = entry.path();
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(code, comment)` halves of a line.
fn split_comment(line: &str) -> (&str, &str) {
    line.split_once("//").unwrap_or((line, ""))
}

/// Whether the operand on `lines[site]` carries `marker`: walk up from
/// it through comment lines and the unterminated lines of its own
/// statement, and stop at the first line that ends something else.
fn justified(lines: &[&str], site: usize, marker: &str) -> bool {
    if split_comment(lines[site]).1.contains(marker) {
        return true;
    }
    for line in lines[..site].iter().rev() {
        let (code, comment) = split_comment(line);
        let code = code.trim();
        if code.ends_with([';', '{', '}', ',']) || (code.is_empty() && comment.is_empty()) {
            return false;
        }
        if comment.contains(marker) {
            return true;
        }
    }
    false
}

#[test]
fn relaxed_and_seqcst_are_justified() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(crates).expect("crates/").flatten() {
        if krate.file_name() != "sync" {
            rust_sources(&krate.path().join("src"), &mut files);
        }
    }
    let (mut sites, mut bare) = (0, Vec::new());
    for file in &files {
        let text = std::fs::read_to_string(file).expect("source file");
        let lines: Vec<&str> = text.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let code = split_comment(line).0;
            for (operand, marker) in [("Relaxed", "relaxed:"), ("SeqCst", "seqcst:")] {
                if code.contains(&format!("Ordering::{operand}")) {
                    sites += 1;
                    if !justified(&lines, i, marker) {
                        bare.push(format!("{}:{}: {operand}", file.display(), i + 1));
                    }
                }
            }
        }
    }
    assert!(sites > 0, "the walk found no atomic operand at all");
    let bare = bare.join("\n");
    assert!(bare.is_empty(), "no justification comment on:\n{bare}");
}
