//! Edge tests of the software MMU's shift/mask addressing: the first and
//! last element of every page, at every power-of-two page size the
//! cluster accepts, fault exactly once per page and read back intact.

use dsm::{Cluster, DsmConfig, Pod};

/// Rank 0 writes the first and last element of each of four pages of
/// `T`, then rank 1 reads them back: one write fault per page on the
/// writer, one read fault per page on the reader, and no other faults.
fn first_and_last_of_every_page<T: Pod + PartialEq + std::fmt::Debug>(
    page_size: usize,
    value: impl Fn(usize) -> T + Sync,
) {
    const PAGES: usize = 4;
    let cl = Cluster::new(DsmConfig {
        nprocs: 2,
        page_size,
        ..Default::default()
    });
    // A one-element pad first, so the region under test starts on page 1.
    let _pad = cl.alloc::<T>(1);
    let per_page = page_size / T::SIZE;
    let s = cl.alloc::<T>(PAGES * per_page);
    assert_eq!(s.page_of(0, page_size), 1);
    let ends: Vec<usize> = (0..PAGES)
        .flat_map(|pg| [pg * per_page, (pg + 1) * per_page - 1])
        .collect();
    cl.run(|p| {
        if p.rank() == 0 {
            for &i in &ends {
                p.write(&s, i, value(i));
            }
            assert_eq!(
                p.counters().write_faults,
                PAGES as u64,
                "page size {page_size}"
            );
            assert_eq!(p.counters().read_faults, 0);
        }
        p.barrier();
        if p.rank() == 1 {
            for &i in &ends {
                assert_eq!(
                    p.read(&s, i),
                    value(i),
                    "element {i}, page size {page_size}"
                );
            }
            assert_eq!(
                p.counters().read_faults,
                PAGES as u64,
                "page size {page_size}"
            );
            assert_eq!(p.counters().write_faults, 0);
        }
        p.barrier();
    });
}

#[test]
fn i32_page_edges_fault_once_per_page() {
    for shift in 6..=16 {
        first_and_last_of_every_page::<i32>(1 << shift, |i| -(i as i32) - 7);
    }
}

#[test]
fn f64_page_edges_fault_once_per_page() {
    for shift in 6..=16 {
        first_and_last_of_every_page::<f64>(1 << shift, |i| i as f64 * 0.5 - 3.0);
    }
}

#[test]
#[should_panic(expected = "page size: power of two")]
fn non_power_of_two_page_size_is_rejected() {
    let _ = Cluster::new(DsmConfig {
        nprocs: 1,
        page_size: 96,
        ..Default::default()
    });
}
