(* Quickstart: create tables, load data, and run queries — including the
   paper's gapply syntax — through the public Engine API.

   Run with:  dune exec examples/quickstart.exe                        *)

let section title = Format.printf "@.=== %s ===@." title

let show db src =
  Format.printf "@.sql> %s@." src;
  match Engine.exec db src with
  | Engine.Rows rel -> print_string (Relation.to_string rel)
  | Engine.Message m -> Format.printf "%s@." m
  | Engine.Explanation text -> Format.printf "%s" text
  | Engine.Failed e -> Format.printf "error: %s@." (Errors.to_string e)

let () =
  let db = Engine.create () in

  section "Schema and data (plain SQL DDL)";
  List.iter (show db)
    [
      "create table supplier (s_suppkey int primary key, s_name varchar)";
      "create table part (p_partkey int primary key, p_name varchar, \
       p_retailprice float)";
      "create table partsupp (ps_suppkey int, ps_partkey int, foreign key \
       (ps_suppkey) references supplier (s_suppkey), foreign key \
       (ps_partkey) references part (p_partkey))";
      "insert into supplier values (1, 'Acme'), (2, 'Globex'), (3, \
       'Initech')";
      "insert into part values (1, 'bolt', 10.0), (2, 'nut', 20.0), (3, \
       'gear', 30.0), (4, 'cog', 40.0)";
      "insert into partsupp values (1, 1), (1, 2), (1, 3), (2, 2), (2, 4)";
    ];

  section "Ordinary SQL";
  show db
    "select s_name, count(*) as parts from supplier, partsupp where \
     s_suppkey = ps_suppkey group by s_name";

  section "The paper's gapply syntax (Section 3.1)";
  (* For each supplier: every part with its price, plus the supplier's
     average price — one grouped pass instead of two joins (query Q1). *)
  show db
    "select gapply(select p_name, p_retailprice, null as avg_price from g \
     union all select null, null, avg(p_retailprice) from g) from \
     partsupp, part where ps_partkey = p_partkey group by ps_suppkey : g";

  (* Count parts above/below the per-supplier average (query Q2). *)
  show db
    "select gapply(select count(*) as above_avg, null as below_avg from g \
     where p_retailprice >= (select avg(p_retailprice) from g) union all \
     select null, count(*) from g where p_retailprice < (select \
     avg(p_retailprice) from g)) from partsupp, part where ps_partkey = \
     p_partkey group by ps_suppkey : g";

  section "EXPLAIN shows the GApply plan and the rules that fired";
  show db
    "explain select gapply(select p_name from g where p_retailprice < \
     25.0) from partsupp, part where ps_partkey = p_partkey group by \
     ps_suppkey : g";

  Format.printf "@.done.@."
