//! Import/export of embedding stores.
//!
//! Two formats:
//!
//! * **TSV** — `kind<TAB>id<TAB>v0 v1 v2 ...` per line, `kind` ∈
//!   `{entity, relation}`. This matches the output of the TransE-family
//!   reference implementations, so embeddings trained externally (the
//!   paper uses the original authors' code) import directly.
//! * **Binary** — a compact little-endian format (`VKGE` magic, version,
//!   shapes, raw `f64` rows) via the `bytes` crate, for fast reload of
//!   large stores.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::store::EmbeddingStore;

/// Magic bytes of the binary format.
const MAGIC: &[u8; 4] = b"VKGE";
/// Current binary format version.
const VERSION: u8 = 1;

/// Errors raised by embedding import.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Malformed text input.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Malformed binary input.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IoError::Format(m) => write!(f, "bad binary format: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Writes `store` as TSV.
pub fn write_tsv<W: Write>(store: &EmbeddingStore, writer: W) -> Result<(), IoError> {
    let mut out = BufWriter::new(writer);
    let d = store.dim();
    for (kind, rows) in [
        ("entity", store.entity_rows()),
        ("relation", store.relation_rows()),
    ] {
        for (i, row) in rows.chunks().flat_map(|c| c.chunks_exact(d)).enumerate() {
            write!(out, "{kind}\t{i}\t")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(out, " ")?;
                }
                write!(out, "{v}")?;
            }
            writeln!(out)?;
        }
    }
    out.flush()?;
    Ok(())
}

/// Reads a TSV embedding dump produced by [`write_tsv`] (or by external
/// TransE-style tooling using the same layout).
///
/// Rows may arrive in any order but ids must be dense (0..n).
pub fn read_tsv<R: Read>(reader: R) -> Result<EmbeddingStore, IoError> {
    let mut dim: Option<usize> = None;
    let mut entities: Vec<Option<Vec<f64>>> = Vec::new();
    let mut relations: Vec<Option<Vec<f64>>> = Vec::new();

    for (lineno, line) in BufReader::new(reader).lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut fields = trimmed.split('\t');
        let (kind, id, values) = match (fields.next(), fields.next(), fields.next(), fields.next())
        {
            (Some(k), Some(i), Some(v), None) => (k, i, v),
            _ => {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    message: "expected 3 tab-separated fields".into(),
                })
            }
        };
        let id: usize = id.parse().map_err(|_| IoError::Parse {
            line: lineno + 1,
            message: format!("bad id {id:?}"),
        })?;
        let row: Vec<f64> = values
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .map_err(|e| IoError::Parse {
                line: lineno + 1,
                message: format!("bad float: {e}"),
            })?;
        match dim {
            None => dim = Some(row.len()),
            Some(d) if d != row.len() => {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    message: format!("dimensionality mismatch: expected {d}, got {}", row.len()),
                })
            }
            _ => {}
        }
        let target = match kind {
            "entity" => &mut entities,
            "relation" => &mut relations,
            other => {
                return Err(IoError::Parse {
                    line: lineno + 1,
                    message: format!("unknown row kind {other:?}"),
                })
            }
        };
        if target.len() <= id {
            target.resize(id + 1, None);
        }
        target[id] = Some(row);
    }

    let dim = dim.ok_or(IoError::Format("empty embedding file".into()))?;
    let flatten = |rows: Vec<Option<Vec<f64>>>, what: &str| -> Result<Vec<f64>, IoError> {
        let mut flat = Vec::with_capacity(rows.len() * dim);
        for (i, row) in rows.into_iter().enumerate() {
            let row = row.ok_or_else(|| IoError::Format(format!("missing {what} row {i}")))?;
            flat.extend(row);
        }
        Ok(flat)
    };
    Ok(EmbeddingStore::from_raw(
        dim,
        flatten(entities, "entity")?,
        flatten(relations, "relation")?,
    ))
}

/// Serializes `store` into the compact binary format.
pub fn to_binary(store: &EmbeddingStore) -> Bytes {
    let d = store.dim();
    let ents = store.entity_rows();
    let rels = store.relation_rows();
    let mut buf = BytesMut::with_capacity(4 + 1 + 4 * 3 + (ents.len() + rels.len()) * d * 8);
    buf.put_slice(MAGIC);
    buf.put_u8(VERSION);
    buf.put_u32_le(d as u32);
    buf.put_u32_le(ents.len() as u32);
    buf.put_u32_le(rels.len() as u32);
    for &v in ents.iter().chain(rels) {
        buf.put_f64_le(v);
    }
    buf.freeze()
}

/// Deserializes a store from the binary format.
pub fn from_binary(mut data: &[u8]) -> Result<EmbeddingStore, IoError> {
    if data.remaining() < 4 + 1 + 12 {
        return Err(IoError::Format("truncated header".into()));
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(IoError::Format(format!("bad magic {magic:?}")));
    }
    let version = data.get_u8();
    if version != VERSION {
        return Err(IoError::Format(format!("unsupported version {version}")));
    }
    let dim = data.get_u32_le() as usize;
    let n = data.get_u32_le() as usize;
    let m = data.get_u32_le() as usize;
    if dim == 0 {
        return Err(IoError::Format("zero dimensionality".into()));
    }
    let need = (n + m) * dim * 8;
    if data.remaining() != need {
        return Err(IoError::Format(format!(
            "payload size mismatch: expected {need} bytes, found {}",
            data.remaining()
        )));
    }
    let mut entities = Vec::with_capacity(n * dim);
    for _ in 0..n * dim {
        entities.push(data.get_f64_le());
    }
    let mut relations = Vec::with_capacity(m * dim);
    for _ in 0..m * dim {
        relations.push(data.get_f64_le());
    }
    Ok(EmbeddingStore::from_raw(dim, entities, relations))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_store() -> EmbeddingStore {
        EmbeddingStore::from_raw(3, vec![1.0, 2.0, 3.0, -1.5, 0.25, 9.0], vec![0.1, 0.2, 0.3])
    }

    #[test]
    fn tsv_roundtrip() {
        let store = sample_store();
        let mut buf = Vec::new();
        write_tsv(&store, &mut buf).unwrap();
        let back = read_tsv(buf.as_slice()).unwrap();
        assert_eq!(back, store);
    }

    /// A store spanning several chunks writes the bytes the flat
    /// row-major matrix spells out, in both formats, and reads back equal.
    #[test]
    fn chunked_store_writes_the_flat_matrix_bytes() {
        let (n, m, d) = (2 * vkg_kg::CHUNK_LEN + 5, 3, 3);
        let ents: Vec<f64> = (0..n * d).map(|i| i as f64 * 0.37 - 11.0).collect();
        let rels: Vec<f64> = (0..m * d).map(|i| 1.0 / (i as f64 + 3.0)).collect();
        let store = EmbeddingStore::from_raw(d, ents.clone(), rels.clone());

        let mut binary = b"VKGE\x01".to_vec();
        for shape in [d, n, m] {
            binary.extend_from_slice(&(shape as u32).to_le_bytes());
        }
        for v in ents.iter().chain(&rels) {
            binary.extend_from_slice(&v.to_le_bytes());
        }
        let bytes = to_binary(&store);
        assert_eq!(&bytes[..], &binary[..]);
        assert_eq!(from_binary(&bytes).unwrap(), store);

        let mut tsv = String::new();
        for (kind, flat) in [("entity", &ents), ("relation", &rels)] {
            for (i, row) in flat.chunks_exact(d).enumerate() {
                let cells: Vec<String> = row.iter().map(f64::to_string).collect();
                tsv += &format!("{kind}\t{i}\t{}\n", cells.join(" "));
            }
        }
        let mut written = Vec::new();
        write_tsv(&store, &mut written).unwrap();
        assert_eq!(written, tsv.as_bytes());
        assert_eq!(read_tsv(written.as_slice()).unwrap(), store);
    }

    #[test]
    fn tsv_rows_in_any_order() {
        let text = "relation\t0\t0.1 0.2\nentity\t1\t3 4\nentity\t0\t1 2\n";
        let store = read_tsv(text.as_bytes()).unwrap();
        assert_eq!(store.dim(), 2);
        assert_eq!(store.entity_rows().to_vec(), [1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn tsv_missing_row_is_error() {
        let text = "entity\t0\t1 2\nentity\t2\t5 6\n";
        assert!(read_tsv(text.as_bytes()).is_err());
    }

    #[test]
    fn tsv_dim_mismatch_is_error() {
        let text = "entity\t0\t1 2\nentity\t1\t1 2 3\n";
        let err = read_tsv(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("dimensionality mismatch"));
    }

    #[test]
    fn tsv_unknown_kind_is_error() {
        let text = "vector\t0\t1 2\n";
        assert!(read_tsv(text.as_bytes()).is_err());
    }

    #[test]
    fn binary_roundtrip() {
        let store = sample_store();
        let bytes = to_binary(&store);
        let back = from_binary(&bytes).unwrap();
        assert_eq!(back, store);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let store = sample_store();
        let mut bytes = to_binary(&store).to_vec();
        bytes[0] = b'X';
        assert!(from_binary(&bytes).is_err());
    }

    #[test]
    fn binary_rejects_truncation() {
        let store = sample_store();
        let bytes = to_binary(&store);
        assert!(from_binary(&bytes[..bytes.len() - 3]).is_err());
        assert!(from_binary(&bytes[..4]).is_err());
    }

    #[test]
    fn binary_rejects_wrong_version() {
        let store = sample_store();
        let mut bytes = to_binary(&store).to_vec();
        bytes[4] = 99;
        assert!(from_binary(&bytes).is_err());
    }
}
