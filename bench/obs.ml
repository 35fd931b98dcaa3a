(* Per-protocol communication observability bench.

   Runs the five reconciliation stacks (the four set-of-sets protocols plus
   the sets-of-sets-of-sets extension) on one fixed deterministic workload
   and emits the cost accounting the observability layer produces — total
   and per-direction bits, rounds, IBLT peel statistics, estimator activity
   — as BENCH_obs.json. The workload is identical with and without
   [--smoke]: every number here is a pure function of the seed, so the
   committed baseline (bench/baseline/BENCH_obs.json) can be compared
   exactly and a >10% growth in any protocol's total bits fails the run
   (exit 2). CI runs [bench obs --smoke] as a communication-regression
   gate.

   Run:   dune exec bench/main.exe -- obs [--smoke]                        *)

module Prng = Ssr_util.Prng
module Parent = Ssr_core.Parent
module Protocol = Ssr_core.Protocol
module Sos3 = Ssr_core.Sos3
module Comm = Ssr_setrecon.Comm
module Metrics = Ssr_obs.Metrics

let seed = 0x0B5E47ABL

let baseline_path = "bench/baseline/BENCH_obs.json"

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

(* One result row from a protocol run's cost report: transcript-level
   totals plus the metric deltas the run produced. Metric names absent
   from the diff read as zero ([Metrics.counter_value]), so rows have a
   fixed schema regardless of which counters a protocol touches. *)
let row ~protocol ~mode ~ok (stats : Comm.stats) (metrics : Metrics.snapshot) =
  let c = Metrics.counter_value metrics in
  let dist_mean name =
    match Metrics.find metrics name with
    | Some (Metrics.Dist d) when d.count > 0 ->
      float_of_int d.sum /. float_of_int d.count
    | _ -> 0.0
  in
  [ ("name", Perf.S "proto_comm"); ("protocol", Perf.S protocol); ("mode", Perf.S mode);
    ("ok", Perf.B ok); ("rounds", Perf.I stats.Comm.rounds);
    ("bits_total", Perf.I stats.Comm.bits_total);
    ("bits_a_to_b", Perf.I stats.Comm.bits_a_to_b);
    ("bits_b_to_a", Perf.I stats.Comm.bits_b_to_a);
    ("iblt_inserts", Perf.I (c "iblt.inserts"));
    ("decode_attempts", Perf.I (c "iblt.decode.attempts"));
    ("decode_success", Perf.I (c "iblt.decode.success"));
    ("decode_stuck", Perf.I (c "iblt.decode.stuck"));
    ("peels", Perf.I (c "iblt.decode.peels"));
    ("checksum_rejects", Perf.I (c "iblt.decode.checksum_rejects"));
    ("l0_queries", Perf.I (c "estimator.l0.queries"));
    ("strata_queries", Perf.I (c "estimator.strata.queries"));
    ("l0_estimate_mean", Perf.F (dist_mean "estimator.l0.estimate"));
    ("strata_estimate_mean", Perf.F (dist_mean "estimator.strata.estimate")) ]

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let sos_workload () =
  let u = 1 lsl 16 in
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x0B51) in
  let bob = Parent.random rng ~universe:u ~children:16 ~child_size:24 in
  let alice, _ = Parent.perturb rng ~universe:u ~edits:6 bob in
  let d = max 6 (Parent.relaxed_matching_cost alice bob) in
  (u, alice, bob, d, 24 + 6)

let kind_rows () =
  let u, alice, bob, d, h = sos_workload () in
  let known kind =
    let ok, (rep : Protocol.cost_report) =
      match
        Protocol.with_report kind
          (Protocol.reconcile_known kind ~seed:(Prng.derive ~seed ~tag:0x0B52) ~d ~u ~h ~alice ~bob)
      with
      | Ok (o, rep) -> (Parent.equal o.Protocol.recovered alice, rep)
      | Error (`Decode_failure _, rep) -> (false, rep)
    in
    row ~protocol:rep.Protocol.protocol ~mode:"known_d" ~ok rep.Protocol.stats
      rep.Protocol.metrics
  in
  let unknown kind =
    let ok, (rep : Protocol.cost_report) =
      match
        Protocol.with_report kind
          (Protocol.reconcile_unknown kind ~seed:(Prng.derive ~seed ~tag:0x0B53) ~u ~h ~alice ~bob)
      with
      | Ok (o, rep) -> (Parent.equal o.Protocol.recovered alice, rep)
      | Error (`Decode_failure _, rep) -> (false, rep)
    in
    row ~protocol:rep.Protocol.protocol ~mode:"unknown_d" ~ok rep.Protocol.stats
      rep.Protocol.metrics
  in
  List.map known Protocol.all @ List.map unknown Protocol.all

let sos3_row () =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:0x0B54) in
  let mk () = Parent.random rng ~universe:100_000 ~children:10 ~child_size:12 in
  let bob = Sos3.of_parents (List.init 8 (fun _ -> mk ())) in
  let alice = Sos3.perturb rng ~universe:100_000 ~edits:3 bob in
  let d3, d2, d1 = Sos3.diff_bounds alice bob in
  let before = Metrics.snapshot () in
  let ok, stats =
    match
      Sos3.reconcile_known ~seed:(Prng.derive ~seed ~tag:0x0B55) ~d:(max 1 d1) ~d2:(max 1 d2)
        ~d3:(max 1 d3) ~alice ~bob ()
    with
    | Ok o -> (Sos3.equal o.Sos3.recovered alice, o.Sos3.stats)
    | Error (`Decode_failure stats) -> (false, stats)
  in
  let metrics = Metrics.diff ~before ~after:(Metrics.snapshot ()) in
  row ~protocol:"sos3" ~mode:"known_d" ~ok stats metrics

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                 *)
(* ------------------------------------------------------------------ *)

(* Minimal extraction from our own line-per-result JSON: each row is one
   line; pull the quoted [protocol]/[mode] and integer [bits_total] out of
   any line that carries all three. No JSON dependency in the tree. *)
let substr_index s pat =
  let n = String.length s and m = String.length pat in
  let rec go i = if i + m > n then None else if String.sub s i m = pat then Some i else go (i + 1) in
  go 0

let str_field line key =
  match substr_index line (Printf.sprintf "\"%s\": \"" key) with
  | None -> None
  | Some i -> (
    let start = i + String.length key + 5 in
    match String.index_from_opt line start '"' with
    | None -> None
    | Some stop -> Some (String.sub line start (stop - start)))

let int_field line key =
  match substr_index line (Printf.sprintf "\"%s\": " key) with
  | None -> None
  | Some i ->
    let start = i + String.length key + 4 in
    let stop = ref start in
    while !stop < String.length line && (match line.[!stop] with '0' .. '9' -> true | _ -> false) do
      incr stop
    done;
    if !stop = start then None else int_of_string_opt (String.sub line start (!stop - start))

let read_baseline path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let rows = ref [] in
    (try
       while true do
         let line = input_line ic in
         match (str_field line "protocol", str_field line "mode", int_field line "bits_total") with
         | Some p, Some m, Some bits -> rows := ((p, m), bits) :: !rows
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic;
    Some !rows
  end

let check_baseline results =
  match read_baseline baseline_path with
  | None ->
    Printf.printf "obs: no baseline at %s - skipping regression check\n" baseline_path;
    Printf.printf "     (generate one: dune exec bench/main.exe -- obs, then commit %s)\n%!"
      baseline_path;
    true
  | Some baseline ->
    Printf.printf "\n%-16s %-10s | %10s %10s %8s\n" "protocol" "mode" "baseline" "now" "ratio";
    let ok = ref true in
    List.iter
      (fun fields ->
        let get k = List.assoc_opt k fields in
        match (get "protocol", get "mode", get "bits_total") with
        | Some (Perf.S p), Some (Perf.S m), Some (Perf.I bits) -> (
          match List.assoc_opt (p, m) baseline with
          | None -> Printf.printf "%-16s %-10s | %10s %10d %8s\n" p m "(new)" bits "-"
          | Some base ->
            let ratio = float_of_int bits /. float_of_int (max 1 base) in
            let flag = ratio > 1.10 in
            if flag then ok := false;
            Printf.printf "%-16s %-10s | %10d %10d %7.3fx%s\n" p m base bits ratio
              (if flag then "  << REGRESSION (>10%)" else ""))
        | _ -> ())
      results;
    if not !ok then
      Printf.printf "\nobs: FAIL - communication regressed >10%% vs %s\n%!" baseline_path
    else Printf.printf "\nobs: baseline check OK (threshold 10%%)\n%!";
    !ok

(* ------------------------------------------------------------------ *)

let run ~smoke =
  Printf.printf "obs: per-protocol communication table (fixed workload%s)\n%!"
    (if smoke then ", smoke tag only - numbers are identical" else "");
  let results = kind_rows () @ [ sos3_row () ] in
  Perf.write_json ~command:"dune exec bench/main.exe -- obs" ~path:"BENCH_obs.json" ~suite:"obs"
    ~smoke results;
  if not (check_baseline results) then exit 2
