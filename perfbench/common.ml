(* Shared plumbing for the end-to-end benchmark: the clock and the
   machine-speed yardstick, the span recorder of the traced run,
   metric-counter windows, session accounting and the raw-result JSON
   every workload prints. *)

module Metrics = Ssr_obs.Metrics

let now_ns () = Monotonic_clock.now ()

let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* ------------------------------------------------------------------ *)
(* Machine speed                                                       *)
(* ------------------------------------------------------------------ *)

(* The shared host's speed drifts: for branchy, cache-bound code the same
   work takes up to half as long again for seconds at a time, and a run's
   set-up and sessions slow down together. A fixed yardstick, timed
   outside the clock, measures that drift; each unit's wall time is
   scaled by [yardstick_nominal_s] over the yardstick's mean time around
   and during it, so times read as on a machine where the yardstick takes
   5 ms. The yardstick is a heap sort and open-addressing lookups over
   Bigarrays: it allocates nothing and keeps its data outside the OCaml
   heap, so it moves neither the GC nor [peak_heap_mb], and it runs no
   library code, so no change to the library moves it. *)

module B = Bigarray.Array1

let yardstick_nominal_s = 0.005

let yard_n = 32768

let yard_slots = 65536

let ints n = B.create Bigarray.int Bigarray.c_layout n

let floats n = B.create Bigarray.float64 Bigarray.c_layout n

let yard_src = ints yard_n

let yard_buf = ints yard_n

let yard_tbl = ints yard_slots

let yard_hash x =
  let x = x * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

let yard_value i = (yard_hash (i + 1) land 0xFFFFFF) + 1

(* Linear probing from [s]; 0 marks an empty slot. *)
let rec yard_probe v s =
  let x = B.unsafe_get yard_tbl s in
  if x = 0 || x = v then s else yard_probe v ((s + 1) land (yard_slots - 1))

let yard_slot v = yard_probe v (yard_hash v land (yard_slots - 1))

let () =
  B.fill yard_tbl 0;
  for i = 0 to yard_n - 1 do
    let v = yard_value i in
    B.unsafe_set yard_src i v;
    B.unsafe_set yard_tbl (yard_slot v) v
  done

let rec yard_sift i n =
  let l = (2 * i) + 1 in
  if l < n then begin
    let c = if l + 1 < n && B.unsafe_get yard_buf (l + 1) > B.unsafe_get yard_buf l then l + 1 else l in
    let vi = B.unsafe_get yard_buf i and vc = B.unsafe_get yard_buf c in
    if vc > vi then begin
      B.unsafe_set yard_buf i vc;
      B.unsafe_set yard_buf c vi;
      yard_sift c n
    end
  end

let yardstick () =
  B.blit yard_src yard_buf;
  for i = (yard_n / 2) - 1 downto 0 do
    yard_sift i yard_n
  done;
  for last = yard_n - 1 downto 1 do
    let top = B.unsafe_get yard_buf 0 in
    B.unsafe_set yard_buf 0 (B.unsafe_get yard_buf last);
    B.unsafe_set yard_buf last top;
    yard_sift 0 last
  done;
  let hits = ref 0 in
  for i = 0 to (2 * yard_n) - 1 do
    let v = yard_value (i * 3) in
    if B.unsafe_get yard_tbl (yard_slot v) = v then incr hits
  done;
  ignore (Sys.opaque_identity !hits)

(* Store at [dst.{i}] the faster of two yardstick runs, the first of
   which warms the caches. (Stored, not returned: a returned float would
   be boxed, and the tick handler must not allocate.) *)
let yard_reading (dst : (float, Bigarray.float64_elt, Bigarray.c_layout) B.t) i =
  let t0 = now_ns () in
  yardstick ();
  let t1 = now_ns () in
  yardstick ();
  let a = Int64.to_float (Int64.sub t1 t0) and b = Int64.to_float (Int64.sub (now_ns ()) t1) in
  B.unsafe_set dst i ((if a < b then a else b) /. 1e9)

(* Readings inside a unit. A unit of a second or more (graph_million's
   sessions, its set-up steps) outlasts the drift's stretches, so
   readings on either side of it miss them. An interval timer on the
   process's CPU time takes a reading every [tick_s] wherever the program
   is. The handler allocates nothing, so the runtime counters stay
   deterministic, and [timed] leaves the handler's time out of every
   unit. *)
let tick_s = 0.25

let tick_cap = 1 lsl 16

(* The yardstick time of every tick reading. *)
let tick_y = floats tick_cap

(* [0]: tick readings taken; [1]: seconds spent in them; [2]: 1 while a
   reading runs (a tick then takes none); [3]: the last explicit
   reading. *)
let tick_state = floats 4

let ticks () = int_of_float (B.unsafe_get tick_state 0)

let tick_spent () = B.unsafe_get tick_state 1

let on_tick (_ : int) =
  if B.unsafe_get tick_state 2 = 0. then begin
    B.unsafe_set tick_state 2 1.;
    let t0 = now_ns () in
    let n = int_of_float (B.unsafe_get tick_state 0) in
    if n < tick_cap then begin
      yard_reading tick_y n;
      B.unsafe_set tick_state 0 (float_of_int (n + 1))
    end;
    B.unsafe_set tick_state 1
      (B.unsafe_get tick_state 1 +. (Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9));
    B.unsafe_set tick_state 2 0.
  end

let () =
  B.fill tick_state 0.;
  Sys.set_signal Sys.sigvtalrm (Sys.Signal_handle on_tick);
  ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = tick_s; it_value = tick_s })

(* Stop the ticks, before the results are written. *)
let stop_ticks () =
  ignore (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = 0.; it_value = 0. })

(* Wall time on the monotonic clock, less the tick readings taken
   meanwhile. (Process CPU time from getrusage was tried: its per-session
   differences spread more, not less.) *)
let timed f =
  let s0 = tick_spent () in
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0 -. (tick_spent () -. s0))

(* Every explicit reading of the run, latest first; with the tick
   readings, the per-layer figure. *)
let speed_samples : float list ref = ref []

(* An explicit reading, outside every clock, and how many tick readings
   came before it. *)
type reading = { y : float; tick : int }

let speed () =
  B.unsafe_set tick_state 2 1.;
  yardstick ();
  yard_reading tick_state 3;
  let y = B.unsafe_get tick_state 3 in
  B.unsafe_set tick_state 2 0.;
  speed_samples := y :: !speed_samples;
  { y; tick = ticks () }

(* [dt] seconds of a unit between readings [before] and [after], at the
   nominal speed: scaled by the mean of those two and of the tick
   readings between them. *)
let corrected ~before ~after dt =
  let sum = ref (before.y +. after.y) and n = ref 2 in
  for i = before.tick to min after.tick tick_cap - 1 do
    sum := !sum +. B.unsafe_get tick_y i;
    incr n
  done;
  dt *. yardstick_nominal_s *. float_of_int !n /. !sum

(* Work timed in steps, each scaled by the readings around and during it. *)
type steps = { mutable before : reading; mutable total : float }

let steps () = { before = speed (); total = 0. }

let step st f =
  let r, dt = timed f in
  let after = speed () in
  st.total <- st.total +. corrected ~before:st.before ~after dt;
  st.before <- after;
  r

(* [timed f] with the result at the nominal speed. *)
let timed_corrected f =
  let st = steps () in
  let r = step st f in
  (r, st.total)

(* ------------------------------------------------------------------ *)
(* Spans of the traced run                                             *)
(* ------------------------------------------------------------------ *)

(* Spans wrap the benchmark's own calls into each layer. They are kept in
   memory and written out when the run ends; with tracing off [span] is a
   plain call. *)
type span = { name : string; start_ns : int64; stop_ns : int64; parent : int; id : int }

let tracing = ref false

let spans : span list ref = ref []

let next_id = ref 0

let current = ref (-1)

let span name f =
  if not !tracing then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let s0 = tick_spent () in
    let start_ns = now_ns () in
    let finish () =
      (* Like [timed], a span leaves out the tick readings taken in it. *)
      let ticked = Int64.of_float ((tick_spent () -. s0) *. 1e9) in
      spans := { name; start_ns; stop_ns = Int64.sub (now_ns ()) ticked; parent; id } :: !spans;
      current := parent
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(* Total seconds and call count per span name. *)
let span_totals () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e9 in
      let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (t +. d, n + 1))
    !spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let write_spans path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc "%s{\"id\":%d,\"parent\":%d,\"name\":\"%s\",\"start_ns\":%Ld,\"stop_ns\":%Ld}\n"
        (if i = 0 then "" else ",")
        s.id s.parent (Metrics.json_escape s.name) s.start_ns s.stop_ns)
    (List.rev !spans);
  output_string oc "]\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Counter windows                                                     *)
(* ------------------------------------------------------------------ *)

(* The layer counters the benchmark reads, by their registry names. An
   absent name reads 0, so a layer a workload never touches reports 0. *)
let counter_names =
  [
    "iblt.inserts";
    "iblt.deletes";
    "iblt.decode.attempts";
    "iblt.decode.success";
    "iblt.decode.peels";
    "rateless.cells_sent";
    "rateless.cells_useful";
    "field.karatsuba.calls";
    "field.newton.reductions";
    "frame.rejects.crc";
    "arq.data_sent";
    "arq.retransmits";
    "resilient.attempts";
    "resilient.salvage_attempts";
    "resilient.direct_fallbacks";
    "comm.messages";
    "server.mutations.applied";
    "server.shard.refreshes";
    "server.shard.snapshots";
    "server.sessions.opened";
    "server.sessions.rejected";
    "server.sessions.escalations";
    "server.pump.rounds";
  ]

type window = { snap : Metrics.snapshot; gc : Gc.stat }

let open_window () = { snap = Metrics.snapshot (); gc = Gc.quick_stat () }

(* Counter deltas plus the runtime's own (minor words, major collections). *)
let close_window w =
  let after = Metrics.snapshot () and gc = Gc.quick_stat () in
  let d = Metrics.diff ~before:w.snap ~after in
  List.map (fun n -> (n, float_of_int (Metrics.counter_value d n))) counter_names
  @ [
      ("runtime.minor_words", gc.Gc.minor_words -. w.gc.Gc.minor_words);
      ( "runtime.major_collections",
        float_of_int (gc.Gc.major_collections - w.gc.Gc.major_collections) );
    ]

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* The heap high-water mark when the first pass ended. Later passes only
   add timing samples; how many there are depends on the machine's
   speed, so they must not move the reported heap. *)
let first_pass_peak_mb = ref 0.

(* ------------------------------------------------------------------ *)
(* Session accounting                                                  *)
(* ------------------------------------------------------------------ *)

(* What one session reports besides its wall time. [verified] is the
   benchmark's own ground-truth check; [silent] marks a result the
   program claimed correct that the check refuted. *)
type outcome = {
  verified : bool;
  silent : bool;
  bits : int;
  rounds : int;
  first_try : bool;
  vlat_us : int option;
}

(* Per-kind totals. Deterministic fields are taken from the first pass
   only; [pass_s] gets one mean session time per pass and [session_s] the
   first pass's session times, both at the nominal speed. *)
type kind = {
  kname : string;
  mutable sessions : int;
  mutable ok : int;
  mutable silent_n : int;
  mutable bits : int;
  mutable rounds : int;
  mutable first_try : int;
  mutable vlats : int list;
  mutable pass_s : float list;
  mutable session_s : float list;
}

let kind kname =
  {
    kname;
    sessions = 0;
    ok = 0;
    silent_n = 0;
    bits = 0;
    rounds = 0;
    first_try = 0;
    vlats = [];
    pass_s = [];
    session_s = [];
  }

let record k (o : outcome) =
  k.sessions <- k.sessions + 1;
  if o.verified then k.ok <- k.ok + 1;
  if o.silent then k.silent_n <- k.silent_n + 1;
  k.bits <- k.bits + o.bits;
  k.rounds <- k.rounds + o.rounds;
  if o.first_try then k.first_try <- k.first_try + 1;
  Option.iter (fun v -> k.vlats <- v :: k.vlats) o.vlat_us

(* A session of the first pass is recorded; a later pass only adds any
   silent corruption it finds. *)
let record_pass k ~first o =
  if first then record k o else if o.silent then k.silent_n <- k.silent_n + 1

(* ------------------------------------------------------------------ *)
(* Raw result                                                          *)
(* ------------------------------------------------------------------ *)

type result = {
  workload : string;
  setup : float list;
  kinds : kind list;
  counters : (string * float) list;
  extra : (string * float list) list;  (** Workload-specific figures (apply cost, ...). *)
  peak_mb : float;
}

let json_floats l = "[" ^ String.concat "," (List.map (Printf.sprintf "%.17g") l) ^ "]"

let json_ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]"

let json_obj kvs =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) kvs) ^ "}"

let json_num_obj kvs = json_obj (List.map (fun (k, v) -> (k, Printf.sprintf "%.17g" v)) kvs)

(* One JSON line run.py parses: the raw material of every metric. *)
let print_result r =
  let kind_json k =
    json_obj
      [
        ("name", Printf.sprintf "\"%s\"" k.kname);
        ("sessions", string_of_int k.sessions);
        ("ok", string_of_int k.ok);
        ("silent", string_of_int k.silent_n);
        ("bits", string_of_int k.bits);
        ("rounds", string_of_int k.rounds);
        ("first_try", string_of_int k.first_try);
        ("vlat_us", json_ints (List.sort compare k.vlats));
        ("pass_s", json_floats (List.rev k.pass_s));
        ("session_s", json_floats (List.rev k.session_s));
      ]
  in
  let fields =
    [
      ("workload", Printf.sprintf "\"%s\"" r.workload);
      ("pid", string_of_int (Unix.getpid ()));
      ("setup_s", json_floats r.setup);
      ("kinds", "[" ^ String.concat "," (List.map kind_json r.kinds) ^ "]");
      ("counters", json_num_obj r.counters);
      ("extra", json_obj (List.map (fun (k, v) -> (k, json_floats v)) r.extra));
      ( "spans",
        json_obj
          (List.map (fun (k, (t, n)) -> (k, Printf.sprintf "[%.17g,%d]" t n)) (span_totals ())) );
      ("peak_heap_mb", Printf.sprintf "%.17g" r.peak_mb);
      ( "yardstick_s",
        json_floats
          (List.rev_append !speed_samples (List.init (min (ticks ()) tick_cap) (B.get tick_y))) );
    ]
  in
  print_endline (json_obj fields)

(* Run set-up [n] times and keep the first result: set-up is timed more
   than once so its median is steady. Each repetition starts after a full
   major collection, outside the clock, so none pays for the garbage of
   the one before. Only the first repetition is traced. [f] times its
   work in [step]s; times are at the nominal speed. *)
let repeat_setup n f =
  let timed_steps () =
    let st = steps () in
    let r = f st in
    (r, st.total)
  in
  let r, s0 = timed_steps () in
  let was = !tracing in
  tracing := false;
  let rest =
    List.init (n - 1) (fun _ ->
        Gc.full_major ();
        snd (timed_steps ()))
  in
  tracing := was;
  (r, s0 :: rest)

(* ------------------------------------------------------------------ *)
(* Passes                                                              *)
(* ------------------------------------------------------------------ *)

(* The protocol seed of pass [n]: the run's seed for the first pass, a
   sibling for every later one. Later passes reconcile the same inputs
   under fresh salts, so the process-global child-encoding cache cannot
   serve a pass from an earlier one. *)
let pass_seed ~seed n = if n = 0 then seed else Ssr_util.Prng.derive ~seed ~tag:(0x9A55 + n)

(* The pass number of the traced pass. *)
let traced_pass_number = 1 lsl 20

(* Call [pass n] for n = 0, 1, ... while another pass as long as the last
   still fits in [seconds] (at least one pass). [pass] returns the seconds
   it used. *)
let repeat_passes ~seconds pass =
  let n = ref 0 and used = ref 0. and last = ref 0. in
  while !n = 0 || !used +. !last <= seconds do
    last := pass !n;
    used := !used +. !last;
    incr n
  done

(* Run a session schedule in passes (see [repeat_passes]).
   [schedule n] is pass n's sessions, each tagged with one of [kinds]. A
   session returns a verifier: the session is timed, the verifier checks
   its result against ground truth outside the clock. Counters and the
   deterministic per-session figures come from the first pass only, so
   they repeat bit for bit whatever the machine's speed; a later pass
   only adds one mean session time per kind, at the nominal speed, and
   any silent corruption it finds. Session times are scaled block by
   block, so the drift is followed within a pass: a block ends after
   every [block]-th session, at every [between] call, at every settle and
   at the end of the pass, with a speed reading outside the clock. Block
   ends fall on the same sessions in every run, so the readings' few words
   of allocation do not unsettle the runtime counters. Returns the first
   pass's counters and session seconds (as measured).
   With [~settle:true] a full major collection runs, outside the clock,
   wherever the session kind changes, so no kind pays for the garbage of
   the one before. With [~between:(m, f)], [f] runs outside the clock
   after every m-th session of every pass. *)
let run_passes ?(settle = false) ?between ?(block = max_int) ~seconds ~kinds
    ~(schedule : int -> (kind * (unit -> unit -> outcome)) array) () =
  let counters = ref [] and first_s = ref 0. in
  repeat_passes ~seconds (fun n ->
      let first = n = 0 in
      let sums = Hashtbl.create 8 in
      (* The block's sessions, latest first, with their measured times. *)
      let blk = ref [] and before = ref (speed ()) in
      let end_block () =
        if !blk <> [] then begin
          let after = speed () in
          let scale = corrected ~before:!before ~after 1. in
          List.iter
            (fun (k, dt) ->
              let dt = dt *. scale in
              if first then k.session_s <- dt :: k.session_s;
              let t, c = Option.value ~default:(0., 0) (Hashtbl.find_opt sums k.kname) in
              Hashtbl.replace sums k.kname (t +. dt, c + 1))
            (List.rev !blk);
          blk := [];
          before := after
        end
      in
      let w = ref (open_window ()) and closed = ref [] in
      let pass_s = ref 0. in
      let previous = ref "" in
      Array.iteri
        (fun i (k, session) ->
          if settle && k.kname <> !previous then begin
            end_block ();
            Gc.full_major ();
            before := speed ()
          end;
          previous := k.kname;
          let verify, dt = timed session in
          record_pass k ~first (verify ());
          blk := (k, dt) :: !blk;
          pass_s := !pass_s +. dt;
          match between with
          | Some (m, f) when (i + 1) mod m = 0 ->
            end_block ();
            (* [f]'s allocation stays out of the runtime counters. *)
            closed := close_window !w :: !closed;
            f ();
            w := open_window ();
            before := speed ()
          | _ -> if (i + 1) mod block = 0 then end_block ())
        (schedule n);
      end_block ();
      if first then begin
        counters :=
          List.fold_left
            (List.map2 (fun (name, a) (_, b) -> (name, a +. b)))
            (close_window !w) !closed;
        first_s := !pass_s;
        first_pass_peak_mb := peak_heap_mb ()
      end;
      List.iter
        (fun k ->
          let t, n = Hashtbl.find sums k.kname in
          k.pass_s <- (t /. float_of_int n) :: k.pass_s)
        kinds;
      !pass_s);
  (!counters, !first_s)

(* One more pass with spans on, not recorded except for any silent
   corruption; returns its session seconds (verification excluded). *)
let traced_pass schedule =
  tracing := true;
  let total = ref 0. in
  Array.iter
    (fun (k, session) ->
      let verify, dt = timed session in
      record_pass k ~first:false (verify ());
      total := !total +. dt)
    (schedule traced_pass_number);
  !total

(* ------------------------------------------------------------------ *)
(* Resilient sessions (graph_million, ladder_net)                      *)
(* ------------------------------------------------------------------ *)

module Iset = Ssr_util.Iset
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Resilient = Ssr_transport.Resilient

let stacks = [ "set"; "naive"; "iblt-of-iblts"; "cascade"; "multiround" ]

let kind_of = function
  | "naive" -> Protocol.Naive
  | "iblt-of-iblts" -> Protocol.Iblt_of_iblts
  | "cascade" -> Protocol.Cascade
  | "multiround" -> Protocol.Multiround
  | s -> invalid_arg ("unknown stack " ^ s)

(* A parent's elements as one flat set, for the set stack. *)
let flatten p =
  Iset.of_seq
    (Seq.concat_map (fun c -> Array.to_seq (Iset.to_array c)) (List.to_seq (Parent.children p)))

(* A parent pair, Alice's and Bob's, with what every stack needs of it. *)
type sos_pair = {
  alice : Parent.t;
  bob : Parent.t;
  flat : (Iset.t * Iset.t) Lazy.t;  (** The pair's element sets, for the set stack. *)
  u : int;
  h : int;
}

(* One Resilient session of [stack] on [p] over [link]. The call is the
   timed part; the returned verifier checks the result against Alice's
   data. Virtual latency is read from the report, which has it on a
   network link only. *)
let resilient_session ~link ~seed ~stack ~initial_d p =
  let of_report ok (rep : Resilient.report) =
    {
      verified = ok;
      silent = false;
      bits = 8 * rep.Resilient.wire_bytes;
      rounds = rep.Resilient.stats.Ssr_setrecon.Comm.rounds;
      first_try = (match rep.Resilient.attempts with a :: _ -> a.Resilient.ok | [] -> false);
      vlat_us = Option.map (fun t -> t.Resilient.elapsed_us) rep.Resilient.timing;
    }
  in
  let verifier r ~truth ~equal () =
    span "bench.verify_s" (fun () ->
        match r with
        | Ok (got, rep) ->
          let ok = equal got truth in
          { (of_report ok rep) with silent = not ok }
        | Error (`Transport_failure rep | `Deadline_exceeded rep) -> of_report false rep)
  in
  let label = "transport.session_s." ^ stack in
  if stack = "set" then begin
    let fa, fb = Lazy.force p.flat in
    let r =
      span label (fun () -> Resilient.reconcile_set ~link ~seed ~initial_d ~alice:fa ~bob:fb ())
    in
    verifier r ~truth:fa ~equal:Iset.equal
  end
  else begin
    let r =
      span label (fun () ->
          Resilient.reconcile_sos ~link ~kind:(kind_of stack) ~seed ~u:p.u ~h:p.h ~initial_d
            ~alice:p.alice ~bob:p.bob ())
    in
    verifier r ~truth:p.alice ~equal:Parent.equal
  end
