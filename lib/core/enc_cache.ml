module Iset = Ssr_util.Iset

(* The key is the exact structural identity of an encoding: every input the
   encoder consumes (sketch geometry, hash widths, seed, the child itself)
   is part of it, so a hit can only ever return the bytes the encoder would
   have produced — transparency holds by construction, with no fingerprint
   collision to reason about. *)
type key = {
  kind : int;
  cells : int;
  k : int;
  bits : int;
  seed : int64;
  child : Iset.t;
}

module H = Hashtbl.Make (struct
  type t = key

  let equal a b =
    a.kind = b.kind && a.cells = b.cells && a.k = b.k && a.bits = b.bits
    && Int64.equal a.seed b.seed
    && Iset.equal a.child b.child

  let hash key =
    let p = 0x100000001B3 in
    let h = Iset.hash key.child in
    let h = (h lxor key.kind) * p in
    let h = (h lxor key.cells) * p in
    let h = (h lxor key.k) * p in
    let h = (h lxor key.bits) * p in
    let h = (h lxor (Int64.to_int key.seed land max_int)) * p in
    h land max_int
end)

type stats = { hits : int; misses : int; entries : int; bytes : int }

(* One process-global table behind a mutex: encodings are shared between the
   two in-process parties, across cascade level sweeps and across Resilient
   escalation rungs. Values are pure functions of their key, so cache state
   can never change a result — only who computes it — which keeps protocol
   transcripts byte-identical at any domain-pool size. *)
let mutex = Mutex.create ()
let table : Bytes.t H.t = H.create 4096
let enabled = Atomic.make true
let capacity = Atomic.make (256 * 1024 * 1024)
let bytes_used = ref 0
let hit_count = ref 0
let miss_count = ref 0

(* Inside [deferring], misses queue here instead of entering the table. *)
let deferring_depth = Atomic.make 0
let pending : (key * Bytes.t * int) list ref = ref []

let locked f =
  Mutex.lock mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let set_capacity_bytes n =
  if n < 0 then invalid_arg "Enc_cache.set_capacity_bytes: negative capacity";
  Atomic.set capacity n

let clear () =
  locked (fun () ->
      H.reset table;
      pending := [];
      bytes_used := 0;
      hit_count := 0;
      miss_count := 0)

let stats () =
  locked (fun () ->
      { hits = !hit_count; misses = !miss_count; entries = H.length table; bytes = !bytes_used })

(* Heap bytes one entry keeps alive, charged against the budget: the value
   (header + padded payload), the key record and its boxed seed, the child
   set the key retains (an int array, kept alive even after the caller
   drops it), and the table's bucket cell plus its bucket-array slot. *)
let entry_bytes ~child v =
  let word = Sys.word_size / 8 in
  let value = (Bytes.length v / word) + 2 in
  let key = 7 + 3 in
  let child = Iset.cardinal child + 1 in
  let bucket = 4 + 1 in
  word * (value + key + child + bucket)

(* Under the lock. *)
let admit key v cost =
  if not (H.mem table key) then begin
    H.add table key v;
    bytes_used := !bytes_used + cost
  end

let find_or_add ~kind ~cells ~k ~bits ~seed ~child compute =
  if not (Atomic.get enabled) then compute ()
  else begin
    let key = { kind; cells; k; bits; seed; child } in
    match
      locked (fun () ->
          match H.find_opt table key with
          | Some v ->
            incr hit_count;
            Some v
          | None ->
            incr miss_count;
            None)
    with
    | Some v -> v
    | None ->
      (* Compute outside the lock so concurrent misses on distinct children
         proceed in parallel; a racing duplicate compute yields identical
         bytes, and first-writer-wins keeps the byte budget accurate. *)
      let v = compute () in
      let cost = entry_bytes ~child v in
      (* Inside a batch [bytes_used] cannot move, so an entry that does not
         fit on its own is dropped at once rather than kept alive (with
         its child) until the batch ends. *)
      locked (fun () ->
          if !bytes_used + cost <= Atomic.get capacity then
            if Atomic.get deferring_depth > 0 then pending := (key, v, cost) :: !pending
            else admit key v cost);
      v
  end

(* A parallel batch admits its misses all together or not at all once it
   ends: the set of misses does not depend on scheduling (lookups inside
   the batch see only what was there before it), while first-come
   admission into the last free bytes would, and with it every later hit
   and every work counter. *)
let deferring f =
  Atomic.incr deferring_depth;
  Fun.protect f ~finally:(fun () ->
      if Atomic.fetch_and_add deferring_depth (-1) = 1 then
        locked (fun () ->
            let batch = !pending in
            pending := [];
            let cost = List.fold_left (fun acc (_, _, c) -> acc + c) 0 batch in
            if !bytes_used + cost <= Atomic.get capacity then
              List.iter (fun (key, v, c) -> admit key v c) batch))
