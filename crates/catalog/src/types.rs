//! Fundamental identifiers and scalar column types.

use std::fmt;

/// Identifies a base table inside a [`crate::Catalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl fmt::Display for TableId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A `(table, column ordinal)` pair: the global name of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    pub table: TableId,
    pub column: u16,
}

impl ColumnRef {
    pub fn new(table: TableId, column: u16) -> Self {
        Self { table, column }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.c{}", self.table, self.column)
    }
}

/// Scalar column types with PostgreSQL-compatible storage widths.
///
/// The paper's synthetic workload uses numeric columns only (§VI-A), but the
/// TPC-H statistics (§IV) need dates and strings, so all four are modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// 4-byte integer, 4-byte alignment.
    Int4,
    /// 8-byte integer, 8-byte alignment.
    Int8,
    /// 8-byte float, 8-byte alignment.
    Float8,
    /// 4-byte date, 4-byte alignment.
    Date,
    /// Variable-length text with a known *average* payload width
    /// (excluding the 1–4 byte varlena header, which we charge as 4).
    Text { avg_len: u16 },
}

impl ColumnType {
    /// Average on-disk width in bytes, before alignment padding.
    pub fn avg_width(self) -> u32 {
        match self {
            ColumnType::Int4 | ColumnType::Date => 4,
            ColumnType::Int8 | ColumnType::Float8 => 8,
            ColumnType::Text { avg_len } => avg_len as u32 + 4,
        }
    }

    /// Required alignment in bytes (PostgreSQL `typalign`).
    pub fn alignment(self) -> u32 {
        match self {
            ColumnType::Int4 | ColumnType::Date | ColumnType::Text { .. } => 4,
            ColumnType::Int8 | ColumnType::Float8 => 8,
        }
    }
}

/// Rounds `offset` up to the next multiple of `align`.
pub fn align_up(offset: u32, align: u32) -> u32 {
    debug_assert!(align.is_power_of_two());
    (offset + align - 1) & !(align - 1)
}

/// Width of a tuple made of `types`, honoring per-column alignment, starting
/// from a header of `header` bytes and MAXALIGN-ing the final result.
///
/// This mirrors PostgreSQL's `heap_compute_data_size` + MAXALIGN discipline
/// and is what the paper's §V-A uses to size what-if indexes ("the average
/// attribute size ... and the attribute alignments").
pub fn aligned_tuple_width<'a>(
    header: u32,
    types: impl IntoIterator<Item = &'a ColumnType>,
) -> u32 {
    let mut w = header;
    for ty in types {
        w = align_up(w, ty.alignment());
        w += ty.avg_width();
    }
    align_up(w, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_alignment() {
        assert_eq!(ColumnType::Int4.avg_width(), 4);
        assert_eq!(ColumnType::Int8.avg_width(), 8);
        assert_eq!(ColumnType::Text { avg_len: 10 }.avg_width(), 14);
        assert_eq!(ColumnType::Int8.alignment(), 8);
        assert_eq!(ColumnType::Date.alignment(), 4);
    }

    #[test]
    fn align_up_rounds_to_power_of_two() {
        assert_eq!(align_up(0, 8), 0);
        assert_eq!(align_up(1, 8), 8);
        assert_eq!(align_up(8, 8), 8);
        assert_eq!(align_up(9, 4), 12);
    }

    #[test]
    fn tuple_width_honors_padding() {
        // int4 then int8: the int8 must start at offset 8, total 16, already
        // MAXALIGNed.
        let w = aligned_tuple_width(0, [&ColumnType::Int4, &ColumnType::Int8]);
        assert_eq!(w, 16);
        // Two int4s pack into 8 bytes.
        let w = aligned_tuple_width(0, [&ColumnType::Int4, &ColumnType::Int4]);
        assert_eq!(w, 8);
        // Header of 23 (heap tuple header) pads to 24 before an int4.
        let w = aligned_tuple_width(23, [&ColumnType::Int4]);
        assert_eq!(w, 32);
    }

    #[test]
    fn display_formats() {
        let c = ColumnRef::new(TableId(3), 7);
        assert_eq!(c.to_string(), "t3.c7");
    }
}
