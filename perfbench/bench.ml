(* Entry point of the benchmark program. run.py builds it and runs one
   workload per process:

     bench.exe <workload> --seed N --seconds S --trace 0|1
               [--domains N] [--stack S --part session|traced|protocol]
               [--spans FILE]

   It prints one JSON line of raw results (see Common.print_result) and
   exits 3 if any session returned a result that its ground-truth check
   refuted. *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec get key default = function
    | k :: v :: _ when k = key -> v
    | _ :: rest -> get key default rest
    | [] -> default
  in
  let get key default = get key default args in
  let workload = match args with w :: _ -> w | [] -> "" in
  let seed = Int64.of_string (get "--seed" "1") in
  let seconds = float_of_string (get "--seconds" "10") in
  let trace = get "--trace" "0" = "1" in
  Ssr_util.Par.set_domains (int_of_string (get "--domains" "1"));
  let r =
    match workload with
    | "graph_million" ->
      Graph_million.run ~seed ~seconds ~stack:(get "--stack" "set") ~part:(get "--part" "session")
    | "ladder_net" -> Ladder_net.run ~seed ~seconds ~trace
    | "server_churn" -> Server_churn.run ~seed ~seconds ~trace
    | "graph_apps" -> Graph_apps.run ~seed ~seconds ~trace
    | w ->
      prerr_endline ("bench: unknown workload " ^ w);
      exit 2
  in
  Common.stop_ticks ();
  (match get "--spans" "" with "" -> () | path -> Common.write_spans path);
  Common.print_result r;
  if List.exists (fun k -> k.Common.silent_n > 0) r.Common.kinds then exit 3
