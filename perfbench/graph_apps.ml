(* graph_apps: the graph protocols at the EXPERIMENTS E5-E7 sizes, the only
   workload that runs lib/graphs, lib/graphrecon and Sos_multiset.

   Set-up draws [rounds] rounds of instances, each one certified planted
   degree-order pair (d = 1, h = 64, n = 640; the slowest kind by far),
   ten G(n,p) degree-neighbourhood pairs (d = 1; a fifth to a third
   violate the disjointness precondition or fail to decode, by Theorem
   5.6, so there are many of them to keep the failure share steady) and
   six random forest pairs (10 ms each; fewer spread more). The schedule
   is closed loop and runs the sessions grouped by kind, with a full
   major collection between kinds, outside the clock: interleaved, the
   forest sessions paid for the degree-nbr sessions' garbage and their
   times spread by 45% over seeds. Every recovery is checked against
   ground truth: Alice's labeled view for the two graph schemes,
   isomorphism for forests. *)

open Common
module Prng = Ssr_util.Prng
module Graph = Ssr_graphs.Graph
module Gnp = Ssr_graphs.Gnp
module Planted = Ssr_graphs.Planted
module Forest = Ssr_graphs.Forest
module Nsig = Ssr_graphs.Neighbor_degree_sig
module Degree_order = Ssr_graphrecon.Degree_order
module Degree_nbr = Ssr_graphrecon.Degree_nbr
module Forest_recon = Ssr_graphrecon.Forest_recon
module Comm = Ssr_setrecon.Comm

let rounds = 8

(* Kind of each slot of a round. *)
let round = [| 0; 1; 2; 1; 1; 2; 1; 1; 2; 1; 1; 2; 1; 1; 2; 1; 2 |]

type instance =
  | Order of { alice : Graph.t; bob : Graph.t; d : int; h : int }
  | Nbr of { alice : Graph.t; bob : Graph.t; cap : int }
  | Tree of { alice : Forest.t; bob : Forest.t; d : int; sigma : int }

let kinds = [ "degree-order"; "degree-nbr"; "forest" ]

let make ~seed i =
  let rng = Prng.create ~seed:(Prng.derive ~seed ~tag:(0x6A00 + i)) in
  match round.(i mod Array.length round) with
  | 0 ->
    let d = 1 in
    let h = 48 + (16 * d) in
    let base = Planted.separated_instance rng ~n:(10 * h) ~h ~d () in
    let alice, bob = Planted.perturbed_pair rng ~base ~d in
    Order { alice; bob; d; h }
  | 1 ->
    let n, p = [| (240, 0.3); (300, 0.3); (300, 0.4) |].(i mod 3) in
    let alice, bob = Gnp.perturbed_pair rng ~n ~p ~d:1 in
    Nbr { alice; bob; cap = Nsig.default_cap ~n ~p }
  | _ ->
    let n, sigma, d = [| (200, 4, 2); (800, 4, 2); (200, 8, 2) |].(i mod 3) in
    let bob = Forest.random rng ~n ~max_depth:sigma () in
    let alice = Forest.random_updates rng ~max_depth:sigma bob d in
    Tree { alice; bob; d; sigma }

let outcome ~ok ~claimed stats =
  {
    verified = ok;
    silent = claimed && not ok;
    bits = stats.Comm.bits_total;
    rounds = stats.Comm.rounds;
    first_try = false;
    vlat_us = None;
  }

(* Run one session; the returned closure checks it against ground truth. *)
let session ~seed ~index inst () =
  let rseed = Prng.derive ~seed ~tag:(0x6B00 + index) in
  match inst with
  | Order { alice; bob; d; h } -> (
    let r = Degree_order.reconcile ~seed:rseed ~d ~h ~alice ~bob () in
    fun () ->
      span "bench.verify_s" @@ fun () ->
      match r with
      | Ok o ->
        let view =
          span "graphrecon.labeling_s.degree-order" (fun () -> Degree_order.labeled_view alice ~h)
        in
        let ok = match view with Some la -> Graph.equal o.Degree_order.recovered la | None -> false in
        outcome ~ok ~claimed:true o.Degree_order.stats
      | Error (`Decode_failure st | `Not_separated st) -> outcome ~ok:false ~claimed:false st)
  | Nbr { alice; bob; cap } -> (
    let r = Degree_nbr.reconcile ~seed:rseed ~d:1 ~cap ~alice ~bob () in
    fun () ->
      span "bench.verify_s" @@ fun () ->
      match r with
      | Ok o ->
        let view =
          span "graphrecon.labeling_s.degree-nbr" (fun () -> Degree_nbr.labeled_view alice ~cap)
        in
        let ok = match view with Some la -> Graph.equal o.Degree_nbr.recovered la | None -> false in
        outcome ~ok ~claimed:true o.Degree_nbr.stats
      | Error (`Decode_failure st | `Not_disjoint st) -> outcome ~ok:false ~claimed:false st)
  | Tree { alice; bob; d; sigma } -> (
    let r = Forest_recon.reconcile_known ~seed:rseed ~d ~sigma ~alice ~bob () in
    fun () ->
      span "bench.verify_s" @@ fun () ->
      match r with
      | Ok o ->
        (* The forest check is isomorphism; the labeling step (the edge
           encoding) is only timed, in the traced run. *)
        if !tracing then
          ignore
            (span "graphrecon.labeling_s.forest" (fun () -> Forest.edge_encoding ~seed:rseed alice));
        let ok = Forest.isomorphic o.Forest_recon.recovered alice in
        outcome ~ok ~claimed:true o.Forest_recon.stats
      | Error (`Decode_failure st) -> outcome ~ok:false ~claimed:false st)

let run ~seed ~seconds ~trace =
  tracing := trace;
  let inputs, setup_s =
    repeat_setup 3 (fun st ->
        span "apps.datasets_s" (fun () ->
            let per_round = Array.length round in
            Array.concat
              (List.init rounds (fun r ->
                   step st (fun () -> Array.init per_round (fun j -> make ~seed ((r * per_round) + j)))))))
  in
  let ks = List.map (fun n -> (n, kind n)) kinds in
  let kind_index index = round.(index mod Array.length round) in
  (* Sessions run grouped by kind, in [kinds] order. *)
  let order =
    List.stable_sort
      (fun a b -> compare (kind_index a) (kind_index b))
      (List.init (Array.length inputs) Fun.id)
  in
  let schedule pass =
    let seed = pass_seed ~seed pass in
    Array.of_list
      (List.map
         (fun index ->
           let k = List.nth kinds (kind_index index) in
           (List.assoc k ks, session ~seed ~index inputs.(index)))
         order)
  in
  tracing := false;
  let counters, untraced_s =
    run_passes ~settle:true ~block:2 ~seconds ~kinds:(List.map snd ks) ~schedule ()
  in
  let extra =
    if not trace then []
    else [ ("trace.overhead_ratio", [ traced_pass schedule /. untraced_s ]) ]
  in
  {
    workload = "graph_apps";
    setup = setup_s;
    kinds = List.map snd ks;
    counters;
    extra;
    peak_mb = !first_pass_peak_mb;
  }
