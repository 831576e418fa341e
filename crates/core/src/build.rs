//! Parallel index-build helpers: partition → merge over scoped threads.
//!
//! The paper's case studies (§4) all stress bulk ingest — text corpora,
//! spatial layers, image and molecule libraries — and the CPU-heavy part
//! of every one of those builds is per-row and embarrassingly parallel:
//! tokenization, tile decomposition, feature extraction, fingerprinting.
//! The DB-touching part is not: server callbacks mutate `&mut Database`,
//! which is single-writer.
//!
//! [`partition_map`] encodes the split. The coordinating thread (the one
//! holding the `ServerContext`) partitions a batch into contiguous chunks,
//! fans the pure per-row function across `std::thread::scope` workers, and
//! merges the chunk results back **in input order**. Callbacks never leave
//! the coordinating thread, so a `PARALLEL 4` build issues exactly the
//! same callback sequence as a serial one — determinism is structural, not
//! incidental.
//!
//! `PARALLEL <n>` arrives through the index's `PARAMETERS` string (see
//! [`crate::params::ParamString::parallel_degree`]), mirroring Oracle's
//! `PARALLEL` clause.

use crate::meta::IndexInfo;
use crate::odci::OdciIndex;
use crate::server::ServerContext;

/// Default number of base-table rows a streaming build holds in memory at
/// once (the `batch_size` handed to
/// [`crate::server::ServerContext::scan_base_batches`]).
pub const DEFAULT_BUILD_BATCH_ROWS: usize = 1024;

/// Stream the indexed column of the base table through
/// [`OdciIndex::build_batch`], [`DEFAULT_BUILD_BATCH_ROWS`] rows at a time,
/// at the index's `PARALLEL <n>` degree: the one populate path of every
/// cartridge's `create` and rebuild-on-`alter`. The whole table is never
/// materialized.
pub fn populate_from_base(
    index: &dyn OdciIndex,
    srv: &mut dyn ServerContext,
    info: &IndexInfo,
) -> extidx_common::Result<()> {
    let parallel = info.parameters.parallel_degree();
    srv.scan_base_batches(
        &info.table_name,
        &[&info.column_name],
        DEFAULT_BUILD_BATCH_ROWS,
        &mut |srv, batch| index.build_batch(srv, info, batch, parallel),
    )
}

/// Apply `f` to every item, fanning contiguous chunks across `parallel`
/// scoped worker threads. Results come back in input order; with
/// `parallel <= 1` (or a trivially small input) no threads are spawned and
/// this is exactly `items.iter().map(f).collect()`.
pub fn partition_map<T, R, F>(items: &[T], parallel: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let parallel = parallel.clamp(1, items.len().max(1));
    if parallel <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(parallel);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .map(|chunk| scope.spawn(move || chunk.iter().map(f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("index-build worker panicked"))
            .collect()
    })
}

/// [`partition_map`] for fallible per-row work: the error of the
/// **lowest-index** failing item wins, regardless of which worker hit an
/// error first — another determinism guarantee (a serial build would have
/// surfaced exactly that error).
pub fn try_partition_map<T, R, E, F>(items: &[T], parallel: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send,
    E: Send,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    partition_map(items, parallel, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        for parallel in [1, 2, 3, 8, 64] {
            let out = partition_map(&items, parallel, |&x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>(), "parallel={parallel}");
        }
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(partition_map(&empty, 8, |&x| x).is_empty());
        assert_eq!(partition_map(&[7], 8, |&x| x + 1), vec![8]);
    }

    #[test]
    fn parallel_larger_than_input_is_clamped() {
        let items = [1, 2, 3];
        assert_eq!(partition_map(&items, 100, |&x| x), vec![1, 2, 3]);
    }

    #[test]
    fn first_error_by_input_index_wins() {
        let items: Vec<i32> = (0..100).collect();
        let out = try_partition_map(&items, 4, |&x| if x >= 30 { Err(x) } else { Ok(x) });
        // Items 30..100 all fail, split across several workers; the merge
        // must surface item 30's error, as a serial run would.
        assert_eq!(out, Err(30));
    }

    #[test]
    fn workers_actually_run_in_parallel_threads() {
        let main = std::thread::current().id();
        let items: Vec<u32> = (0..64).collect();
        let off_thread = partition_map(&items, 4, |_| std::thread::current().id() != main);
        assert!(off_thread.iter().all(|&b| b), "parallel>1 must not run on the coordinator");
        let on_thread = partition_map(&items, 1, |_| std::thread::current().id() == main);
        assert!(on_thread.iter().all(|&b| b), "parallel=1 must stay on the coordinator");
    }
}
