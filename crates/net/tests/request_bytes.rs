//! The memory budget of a request. A request stream is held whole while
//! it is served, so what one request asks of the heap bounds how many an
//! edge host can hold: a counting global allocator sums the bytes each
//! constructor requests on this thread. A one-key `GET /book` costs its
//! path, its key and one map entry; a JSON object that reserves a tree
//! node around its entries (632 B for one key) breaks the budget.

use edgstr_net::HttpRequest;
use serde_json::json;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Sums the bytes requested (fresh and grown) on threads that asked it to.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    static CALLS: Cell<usize> = const { Cell::new(0) };
}

fn note(bytes: usize) {
    if COUNTING.with(Cell::get) {
        BYTES.with(|b| b.set(b.get() + bytes));
        CALLS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `f`'s result, the bytes it requested on this thread and in how many
/// calls.
fn counted<R>(f: impl FnOnce() -> R) -> (R, usize, usize) {
    BYTES.with(|b| b.set(0));
    CALLS.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, BYTES.with(Cell::get), CALLS.with(Cell::get))
}

#[test]
fn a_one_key_get_costs_its_path_its_key_and_one_entry() {
    let id = 7;
    let (request, bytes, calls) = counted(|| HttpRequest::get("/book", json!({"id": id})));
    println!("GET /book {{id}}: {bytes} B in {calls} allocations");
    assert_eq!(request.params["id"], json!(7));
    assert!(bytes <= 96, "a one-key GET requested {bytes} B");
    assert_eq!(calls, 3, "the path, the key and the map");
}

#[test]
fn a_four_key_post_costs_its_entries() {
    let (id, price) = (4097, 19.5);
    let (request, bytes, calls) = counted(|| {
        HttpRequest::post(
            "/books",
            json!({"id": id, "title": "Dune", "author": "Herbert", "price": price}),
            vec![],
        )
    });
    println!("POST /books {{id, title, author, price}}: {bytes} B in {calls} allocations");
    assert_eq!(request.params["author"], json!("Herbert"));
    // the path, four keys, two string values, and one exact-size map
    let keys = "id".len() + "title".len() + "author".len() + "price".len();
    let strings = "/books".len() + "Dune".len() + "Herbert".len();
    let entry = std::mem::size_of::<(String, serde_json::Value)>();
    assert_eq!(calls, 8);
    assert!(
        bytes <= strings + keys + 4 * entry,
        "a four-key POST requested {bytes} B"
    );
}
